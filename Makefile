# Convenience targets; everything is plain dune underneath.

.PHONY: all build test bench micro bench-runtime bench-smoke bench-service \
        bench-service-smoke bench-fabric bench-fabric-smoke \
        serve-smoke \
        cnbench-smoke \
        check-metrics check-races lint examples clean doc

all: build

build:
	dune build @all

test:
	dune runtest --force

bench:
	dune exec bench/main.exe

micro:
	dune exec bench/main.exe -- micro

bench-runtime:
	dune exec bench/main.exe -- runtime

bench-smoke:
	dune exec bench/main.exe -- runtime --smoke

# Combining/elimination front-end vs the naive per-op baseline; records
# the "service" section of BENCH_runtime.json.
bench-service:
	dune exec bench/main.exe -- service

bench-service-smoke:
	dune exec bench/main.exe -- service --smoke

# Sharded fabric: shard-scaling sweep at 1/2/4 shards of a fixed
# C(8,8) plus a hot-resize-under-load row, every run
# gated on token conservation and a Strict shutdown.  Records the
# "fabric" section of BENCH_runtime.json.
bench-fabric:
	dune exec bench/main.exe -- fabric

bench-fabric-smoke:
	dune exec bench/main.exe -- fabric --smoke

# Out-of-process loopback smoke test: real countnetd daemon + two
# concurrent `countnet load` clients + SIGTERM under load, asserting a
# clean quiescent drain, then the same stop on a lone connection and on
# a 4-shard fabric daemon (--shards 4) under a mixed Inc/Dec load.
# See doc/protocol.md for the wire format.
serve-smoke: build
	sh scripts/serve_smoke.sh

# The benchmark of record's smoke run (about 3 s): the real countnetd
# driven from outside over loopback, every cnbench correctness gate on
# every workload (distinct Inc values, Read = Inc - Dec, wire Drain ok,
# SIGTERM exit 0 with "drain ok").  See cnbench/README.md.
cnbench-smoke:
	dune build @cnbench/smoke

# Deterministic race check of the service layer: every scenario explored
# to a preemption bound of 3, plus the checker's own selftest against
# the deliberately buggy pre-fix models.  Seconds, not minutes.
check-races:
	dune exec bin/countnet.exe -- check -p 3 --selftest

# Static certification: every portfolio family down to its compiled runtime,
# the seeded mutant battery (all must be rejected with their pinned
# diagnostics), and the source-level atomics lint over lib/ and bin/.
# Writes the schema_version-3 certificate payload to
# LINT_certificates.json and fails if any row is not ok.
lint:
	dune exec bin/countnet.exe -- lint --all --mutate --json LINT_certificates.json
	dune exec bin/atomlint.exe -- lib bin
	sh scripts/check_certificates.sh LINT_certificates.json

# Quick end-to-end check of the observability layer: metrics JSON out,
# quiescence validator strict, from the raw network and from both
# combining front-ends (which share one drain-and-report tail).
check-metrics:
	dune exec bin/countnet.exe -- throughput -f counting -w 16 --domains 4 \
	  --ops 2000 --mode cas --metrics --validate strict | grep '"schema_version"'
	dune exec bin/countnet.exe -- throughput -f counting -w 16 --domains 4 \
	  --ops 2000 --service --metrics --validate strict | grep '"schema_version"'
	dune exec bin/countnet.exe -- throughput -f counting -w 16 --domains 4 \
	  --ops 2000 --fabric --shards 2 --metrics --validate strict | grep '"schema_version"'

examples:
	for e in quickstart load_balancing barrier_sync id_server \
	         contention_lab ticket_pool sorting_demo; do \
	  echo "== $$e"; dune exec examples/$$e.exe || exit 1; done

clean:
	dune clean
