GO ?= go

.PHONY: build test race vet lint lint-alloc lint-fixtures fuzz verify bench-solver bench-svc bench-obs bench-fleet bench-sim trace-demo fleet-demo svc-demo

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs mpclint, the project-specific static analyzers enforcing the
# determinism / float-safety / map-order / stdlib-only / ctx-leak /
# lock-scope / no-alloc / atomic-discipline / HTTP-contract invariants
# (DESIGN.md §4e, §4h). Non-zero exit on any finding.
lint:
	$(GO) run ./cmd/mpclint ./...

# lint-alloc cross-checks every //mpc:noalloc annotation against the
# compiler's escape analysis (go build -gcflags=-m): an escape or
# heap-move site inside an annotated function fails the build.
lint-alloc:
	$(GO) run ./cmd/mpclint -alloccheck ./...

# lint-fixtures runs the analyzer golden-fixture tests (testdata trees with
# `// want "..."` expectations) and the mpclint CLI smoke tests.
lint-fixtures:
	$(GO) test ./internal/lint/... ./cmd/mpclint/...

# fuzz smoke-runs every fuzz target (the binary table decoders, the /v1
# JSON decode paths, and the differential check of the /v1/decide codec
# against encoding/json) for FUZZTIME each, seeded from the committed
# corpora under testdata/fuzz.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDeserializeTable$$' -fuzztime $(FUZZTIME) ./internal/fastmpc/
	$(GO) test -run '^$$' -fuzz '^FuzzDeserializeCompressed$$' -fuzztime $(FUZZTIME) ./internal/fastmpc/
	$(GO) test -run '^$$' -fuzz '^FuzzCacheFile$$' -fuzztime $(FUZZTIME) ./internal/fastmpc/
	$(GO) test -run '^$$' -fuzz '^FuzzSessionRequestJSON$$' -fuzztime $(FUZZTIME) ./internal/abrsvc/
	$(GO) test -run '^$$' -fuzz '^FuzzDecideRequestJSON$$' -fuzztime $(FUZZTIME) ./internal/abrsvc/
	$(GO) test -run '^$$' -fuzz '^FuzzDecideCodec$$' -fuzztime $(FUZZTIME) ./internal/abrsvc/

test:
	$(GO) test ./...

# race runs the entire test suite under the race detector.
race:
	$(GO) test -race ./...

# verify is the full pre-merge gate: build, vet, lint (including the
# escape-analysis reconciliation), and the whole test suite under the race
# detector.
verify:
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) run ./cmd/mpclint ./...
	$(GO) run ./cmd/mpclint -alloccheck ./...
	$(GO) test -race ./...

# The bench-* targets set MPCDASH_WRITE_BENCH=1: only then do the
# performance tests rewrite the tracked BENCH_*.json files. Plain `go test`
# asserts the same budgets and writes nothing.

# bench-solver measures the MPC solver hot path (ns/op, allocs/op) and the
# cold vs warm FastMPC table cache, writes BENCH_solver.json, and fails if
# the zero-allocation or warm-beats-cold budget is blown.
bench-solver:
	MPCDASH_WRITE_BENCH=1 $(GO) test -run TestSolverPerformance -count=1 -v .

# bench-svc load-tests a self-hosted abrd decision service over loopback
# five times and times the /v1/decide codec stage, writes BENCH_svc.json
# (median and range of decisions/sec, server-side p99s and allocations per
# decide; codec ns and allocations per round trip; host, Go version,
# GOMAXPROCS, commit), and fails if any run blows the 1 ms lookup-path p99
# or the 1,000 decisions/s floor.
bench-svc:
	MPCDASH_WRITE_BENCH=1 $(GO) test -run TestSvcPerformance -count=1 -v .

# bench-obs measures observability overhead against a bare session,
# writes BENCH_obs.json, and fails if the disabled recorder costs 2% or more.
bench-obs:
	MPCDASH_WRITE_BENCH=1 $(GO) test -run TestObsOverheadBudget -count=1 -v .

# bench-fleet plays cmd/fleet's built-in 10k-session demo scenario on the
# sim backend five times and writes BENCH_fleet.json (sessions/s median and
# range, host, Go version, GOMAXPROCS, commit).
bench-fleet:
	MPCDASH_WRITE_BENCH=1 $(GO) test -run TestFleetPerformance -count=1 -v .

# bench-sim measures the simulator's per-chunk cost: sim.Run of FastMPC and
# BB sessions over a seeded FCC+HSDPA pool, five runs, and writes
# BENCH_sim.json (ns per chunk and allocations per session, median and
# range), failing if a session's allocations grow with its length.
bench-sim:
	MPCDASH_WRITE_BENCH=1 $(GO) test -run TestSimPerformance -count=1 -v .

# trace-demo plays the loopback emulation and writes a Chrome trace-event
# timeline; open trace_demo.json in chrome://tracing or ui.perfetto.dev.
trace-demo:
	$(GO) run ./examples/emulation -trace-out trace_demo.json

# fleet-demo drives the built-in 10k-session scenario (RobustMPC vs
# buffer-based populations over an fcc+hsdpa trace mix) on the simulated
# backend and writes the per-population JSON report.
fleet-demo:
	$(GO) run ./cmd/fleet -sessions 10000 -report fleet_report.json

# svc-demo drives 1,200 concurrent sessions (FastMPC and RobustMPC
# populations) against a self-hosted abrd decision service over loopback
# HTTP — every per-chunk decision is a /v1/decide round trip — and writes
# the per-population JSON report.
svc-demo:
	$(GO) run ./cmd/fleet -backend svc -sessions 1200 -max-inflight 1200 -report svc_report.json
