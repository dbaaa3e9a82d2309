# Convenience targets; everything is plain dune underneath.

.PHONY: all build test bench micro bench-runtime bench-smoke bench-service \
        bench-service-smoke bench-fabric bench-fabric-smoke bench-sketch bench-sketch-smoke bench-hybrid \
        bench-hybrid-smoke bench-projected bench-projected-smoke serve-smoke \
        cnbench-smoke \
        check-metrics check-races lint lint-hybrids examples clean doc

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

# Elastic sharded fabric: shard-scaling sweep at 1/2/4 shards of a fixed
# C(8,8) plus a hot-resize-under-load row, every run
# gated on token conservation and a Strict shutdown.  Records the
# "fabric" section of BENCH_runtime.json.
bench-fabric:
	dune exec bench/main.exe -- fabric

bench-fabric-smoke:
	dune exec bench/main.exe -- fabric --smoke

# Approximate counting tier: the accuracy/throughput/memory frontier of
# the HLL and sparse-graph backends against the exact network-backed
# counter.  Gated on the HLL 95% error bound and the >= 10x sparse
# memory win at 100k keys; the smoke variant shrinks the streams but
# keeps both correctness gates.  Records the "sketch" section of
# BENCH_runtime.json.
bench-sketch:
	dune exec bench/main.exe -- sketch

bench-sketch-smoke:
	dune exec bench/main.exe -- sketch --smoke

# Merger-strategy comparison at C(16,16): depth, size and throughput of
# the classic difference merger vs the periodic3 hybrids, each row
# tagged with its two-token step-battery verdict.  The Periodic_k
# hybrids are refuted past t=4 and not timed; `make lint` keeps their
# verdicts.  Records the "hybrid" section of BENCH_runtime.json.
bench-hybrid:
	dune exec bench/main.exe -- hybrid

bench-hybrid-smoke:
	dune exec bench/main.exe -- hybrid --smoke

# Out-of-process loopback smoke test: real countnetd daemon + two
# concurrent `countnet load` clients + SIGTERM under load, asserting a
# clean quiescent drain.  See doc/protocol.md for the wire format.
serve-smoke: build
	sh scripts/serve_smoke.sh

# The benchmark of record's smoke run (about 3 s): the real countnetd
# driven from outside over loopback, every cnbench correctness gate on
# every workload (distinct Inc values, Read = Inc - Dec, wire Drain ok,
# SIGTERM exit 0 with "drain ok").  See cnbench/README.md.
cnbench-smoke:
	dune build @cnbench/smoke

# Measured + contention-model-projected curves: certifies the
# precompiled routing image (Csr_lint), calibrates the single-domain
# crossing cost, and records projected 2-64 domain central-vs-network
# rows (Cn_analysis.Projection) in the runtime section of
# BENCH_runtime.json next to the measured sweep.
bench-projected:
	dune exec bench/main.exe -- runtime --projected

bench-projected-smoke:
	dune exec bench/main.exe -- runtime --smoke --projected

# Deterministic race check of the service layer: every scenario explored
# to a preemption bound of 3, plus the checker's own selftest against
# the deliberately buggy pre-fix models.  Seconds, not minutes.
check-races:
	dune exec bin/countnet.exe -- check -p 3 --selftest

# Static certification: every portfolio family down to its compiled runtime,
# the merger-substituted hybrid campaign (certified or refuted with
# pinned counterexamples), the seeded mutant battery (all must be
# rejected with their pinned diagnostics), and the source-level atomics
# lint over lib/ and bin/.  Writes the schema_version-2 certificate
# payload to LINT_certificates.json and fails if any classic row is not
# ok or if a hybrid row is unadjudicated.
lint:
	dune exec bin/countnet.exe -- lint --all --hybrids --mutate --json LINT_certificates.json
	dune exec bin/atomlint.exe -- lib bin
	sh scripts/check_certificates.sh LINT_certificates.json

# Just the hybrid campaign (< 30 s): every (family x merger x scope x
# width <= 64) combination, certified bounded-exhaustively or refuted
# with a replayable counterexample.
lint-hybrids:
	dune exec bin/countnet.exe -- lint --hybrids

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
	         contention_lab ticket_pool diffraction_demo sorting_demo; do \
	  echo "== $$e"; dune exec examples/$$e.exe || exit 1; done

clean:
	dune clean
