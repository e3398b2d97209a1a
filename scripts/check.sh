#!/bin/sh
# Full verification gate: build, vet, pdevet, formatting, the test suite
# under the race detector (the parallel red-black Gauss-Seidel sweep must
# stay race-clean), the fuzz smoke, the experiment transcripts, an arm64
# cross-build that must hold no fused multiply-add in band.go, and the bench
# module. Run from the repository root; also available as `make check`.
set -eu

cd "$(dirname "$0")/.."

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== make lint (pdevet ./...)"
make lint

# pdevet loads only non-test files, so an allow annotation in a _test.go
# file suppresses nothing and nothing reports it as stale.
echo "== no //pdevet:allow in _test.go files"
if git grep -nE '//pdevet:allow [a-z]+' -- '*_test.go' ':!internal/lint' ':!cmd/pdevet'; then
	echo "pdevet never reads _test.go files; delete the annotations above" >&2
	exit 1
fi

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

# The -quick experiment transcripts are deterministic (seeded problems and
# chip mismatch, modelled rather than measured time), so a fabric-model or
# solver change that moves a paper number fails here instead of passing
# silently. A PR that means to move one regenerates the file and says so.
# Recorded on amd64; a platform that fuses multiply-adds may differ.
echo "== experiment transcripts (hybridpde -exp <fig> -quick vs internal/exp/testdata)"
transcripts=$(mktemp -d)
trap 'rm -rf "$transcripts"' EXIT
go build -o "$transcripts/hybridpde" ./cmd/hybridpde
for e in fig2 fig3 fig6 fig7 fig8 fig9 ablate; do
	"$transcripts/hybridpde" -exp "$e" -quick >"$transcripts/$e.quick.txt"
	diff -u "internal/exp/testdata/$e.quick.txt" "$transcripts/$e.quick.txt"
done

# The Go spec lets a compiler fuse x*y+z, and arm64 does; amd64 does not.
# Every multiply-add in the band-LU kernels is written float64(x*y)+z, which
# forbids fusion, so their bits match across architectures. A cross-built
# arm64 binary must show no fused instruction attributed to band.go.
echo "== no fused multiply-add in band.go (GOARCH=arm64 go tool objdump)"
GOARCH=arm64 go build -o "$transcripts/hybridpde-arm64" ./cmd/hybridpde
fused=$(go tool objdump "$transcripts/hybridpde-arm64" | grep 'band\.go:' | grep -cE 'FMADDD|FMSUBD|FNMADDD|FNMSUBD' || true)
if [ "$fused" -ne 0 ]; then
	echo "band.go compiles to $fused fused multiply-adds on arm64; round each product with float64(...)" >&2
	exit 1
fi

# bench/ is its own module, so ./... above never compiles it: an exported-API
# slip in serve, cluster or core would otherwise surface only when the
# benchmark itself runs.
echo "== benchmark module (go -C bench vet . && go -C bench test .)"
go -C bench vet .
go -C bench test .

echo "OK"
