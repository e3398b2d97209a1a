#!/bin/sh
# Full verification gate: build, vet, formatting, and the test suite under
# the race detector (the parallel red-black Gauss-Seidel sweep must stay
# race-clean). Run from the repository root; also available as `make check`.
set -eu

cd "$(dirname "$0")/.."

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== pdevet -baseline .pdevet-baseline ./..."
go run ./cmd/pdevet -baseline .pdevet-baseline ./...

echo "== gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go test -race ./..."
go test -race ./...

echo "== fuzz smoke (3s per target)"
make fuzz

# bench/ is its own module, so ./... above never compiles it: an exported-API
# slip in serve, cluster or core would otherwise surface only when the
# benchmark itself runs.
echo "== benchmark module (go -C bench vet . && go -C bench test .)"
go -C bench vet .
go -C bench test .

echo "OK"
