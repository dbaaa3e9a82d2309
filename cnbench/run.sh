#!/usr/bin/env bash
# Builds countnetd and the benchmark from source, then runs the
# benchmark with the given flags, e.g.
#   bash cnbench/run.sh --workload wire-inc --seed 1 --seconds 15 --trace 0
# Run it from anywhere in the repository.  Build output goes to stderr,
# so the last line on stdout is the benchmark's JSON result.  The build
# stays inside the checkout: no shared dune cache, temporary files
# under _build.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
mkdir -p _build/cnbench-tmp
export TMPDIR="$PWD/_build/cnbench-tmp"
dune build --root . ./bin/countnetd.exe ./cnbench/cnbench.exe 1>&2
exec ./_build/default/cnbench/cnbench.exe run "$@"
