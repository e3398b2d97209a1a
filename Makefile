GO ?= go

.PHONY: all build test race vet fmt lint fuzz check bench serve serve-smoke chaos-smoke cache-smoke cluster-smoke scale-smoke stream-smoke

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
	$(GO) test -run '^$$' -fuzz FuzzCSR -fuzztime 3s ./internal/la/
	$(GO) test -run '^$$' -fuzz FuzzParseNetlist -fuzztime 3s ./internal/analog/
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

# End-to-end service smoke: boot pdeserved, drive it with pdeload, assert
# 2xx traffic and a clean SIGTERM drain.
serve-smoke:
	./scripts/serve_smoke.sh

# Chaos smoke: boot pdeserved -chaos (live fault injection), drive analog
# load, assert zero 5xx and live degradation-ladder counters.
chaos-smoke:
	./scripts/chaos_smoke.sh

# Cluster smoke: boot three pdeserved backends behind a pdegw gateway,
# drive load through the fleet, SIGKILL the pinned backend mid-run, and
# assert zero 5xx, a counted failover/eviction, ring re-add on restart,
# warm per-backend caches, and a clean gateway drain.
cluster-smoke:
	./scripts/cluster_smoke.sh

# Scale smoke: boot pdeserved with an autoscaler range, ramp open-loop load
# through it, and assert the worker pool provably adapts — the workers
# gauge rises off the floor and settles back, scale-ups are counted,
# responses stay bit-identical to a fixed-size server, zero 5xx, and a
# clean SIGTERM drain.
scale-smoke:
	./scripts/scale_smoke.sh

# Streaming smoke: boot pdeserved behind pdegw, drive 256-step NDJSON
# trajectories through the gateway with pdeload -stream, and assert the
# streaming plane end to end — every stream completes with a done summary,
# the first frame lands well before the trajectory finishes (TTFF share
# < 25%), the frames-streamed and factorization-reuse counters move, zero
# 5xx, and both processes drain cleanly on SIGTERM while a stream is in
# flight.
stream-smoke:
	./scripts/stream_smoke.sh

# Cache smoke: boot pdeserved with the solve cache on, replay identical and
# near-identical load, assert nonzero cache/warm hits, byte-identical
# bodies on exact repeats, and a clean drain.
cache-smoke:
	./scripts/cache_smoke.sh
