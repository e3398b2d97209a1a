GO ?= go

.PHONY: all build test race vet fmt lint fuzz check bench serve smoke

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l .

# Project-specific static analysis: the nine pdevet rules (internal/lint)
# guarding the repo's numerical, hot-path and concurrency invariants. Zero
# exit means no findings and no unused //pdevet:allow annotations; any
# finding exits 1.
lint:
	$(GO) run ./cmd/pdevet ./...

# Short fuzz smoke over the solver, parser and request-decode targets;
# CI-sized, and the one list of fuzz targets (scripts/check.sh calls it).
# Longer local runs: go test -fuzz FuzzBandLU -fuzztime 60s ./internal/la/
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzBandLU -fuzztime 3s ./internal/la/
	$(GO) test -run '^$$' -fuzz FuzzBandCholesky -fuzztime 3s ./internal/la/
	$(GO) test -run '^$$' -fuzz FuzzSubScaledRows -fuzztime 3s ./internal/la/
	$(GO) test -run '^$$' -fuzz FuzzBandKernels -fuzztime 3s ./internal/la/
	$(GO) test -run '^$$' -fuzz FuzzCSR -fuzztime 3s ./internal/la/
	$(GO) test -run '^$$' -fuzz FuzzBurgersEval -fuzztime 3s ./internal/pde/
	$(GO) test -run '^$$' -fuzz FuzzParseFaultSpec -fuzztime 3s ./internal/fault/
	$(GO) test -run '^$$' -fuzz FuzzCacheKey -fuzztime 3s ./internal/cache/
	$(GO) test -run '^$$' -fuzz FuzzDecodeRequest -fuzztime 3s ./internal/serve/

# Full verification gate: build + vet + pdevet + formatting + race-enabled
# tests + fuzz smoke + the -quick experiment transcripts against their
# committed golden text + the bench/ module's vet and tests.
check:
	./scripts/check.sh

# Allocation benchmarks guarding the time-stepping hot path (the steady
# Newton step, serial and parallel, must report 0 allocs/op).
bench:
	$(GO) test ./internal/core/ -run XXX -bench 'BenchmarkNewtonSparseSteadyStep$$|BenchmarkNewtonSparseSteadyStepParallel|BenchmarkHybridTimeLoop' -benchtime 100x

# Run the solve service locally (Ctrl-C drains in-flight solves).
serve:
	$(GO) run ./cmd/pdeserved

# Process smoke: build the three binaries, boot pdegw over two pdeserved,
# and check what needs real processes (flag parsing, /healthz, one solve
# and one stream through the gateway, no 5xx after a backend SIGKILL,
# chaos and autoscaler boot markers, SIGTERM drain with a stream in
# flight). Everything else is a Go test.
smoke:
	./scripts/smoke.sh
