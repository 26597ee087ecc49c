# Development targets. `make check` is the gate every change must pass;
# the individual targets exist for quicker iteration. Every end-to-end
# smoke check is a TestSmoke* package test, so `go test ./...` runs them.

GO ?= go

.PHONY: check vet build test race flake-hunt bench bench-gate

check: vet build test race bench-gate

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The detector core, the tracer, the trap-store clients and the chaos fleet
# (including the committed regression-seed replay) are the
# concurrency-critical surfaces; they must stay clean under the race
# detector.
race:
	$(GO) test -race ./internal/core/... ./internal/trace/... ./internal/trapstore/... ./internal/chaos/...

# Repeat the concurrency-heavy packages across GOMAXPROCS settings to shake
# out scheduling-dependent failures (see docs/TESTING.md).
flake-hunt:
	$(GO) test -count=5 -cpu 1,2,4 ./internal/core/... ./internal/harness/... ./internal/chaos/... ./internal/trapstore/...

# OnCall hot-path cost (see docs/PERFORMANCE.md for interpretation).
bench:
	GOMAXPROCS=8 $(GO) test -bench BenchmarkOnCallContention -benchtime 1s -run '^$$' .

# Hot-path regression gates: BenchmarkOnCallUncontended/TSVD and the trace
# BenchmarkEmit must stay under the ns/op thresholds committed in
# bench_gate.json (best of N runs; see cmd/tsvd-bench-gate for why the
# minimum is the estimator).
bench-gate:
	$(GO) run ./cmd/tsvd-bench-gate
