#!/bin/sh
# Full verification gate: build, vet, pdevet, formatting, the test suite
# under the race detector (the parallel red-black Gauss-Seidel sweep must
# stay race-clean), the fuzz smoke, the experiment transcripts, an arm64
# cross-build that must hold no fused multiply-add in band.go, cholesky.go,
# lu.go, dense.go, sparse.go, dopri.go, ode.go, newton.go, homotopy.go,
# burgers.go, burgers1d.go, semilinear.go, steady.go, accelerator.go,
# globalise.go, worker.go, perfmodel.go, injector.go or store.go, no fused
# multiply-add instruction in any assembly file under internal/ (la's
# row-update and band-LU panel kernels), no shipped binary linking la's dense LU, and
# the bench module. Run from the repository root; also available as
# `make check`.
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
# Every multiply-add in the band-LU and band-Cholesky kernels, in la's dense
# LU (lu.go: only tests factor with it, so no binary holds it today), in
# la's dense and sparse vector kernels (dense.go and sparse.go; the
# basename sparse.go also covers the fabric's mismatch line and quotient
# loop in analog/sparse.go), in the ode package (dopri.go and ode.go), in
# nonlin's Newton loop and homotopy (newton.go and homotopy.go), in the
# 2-D Burgers residual, Jacobian and problem draw (pde's burgers.go and
# steady.go), in the 1-D Burgers residual and Jacobian (burgers1d.go), in
# Fig 3's semilinear system (semilinear.go), in the fabric run and its
# homotopy blend (analog's accelerator.go), in the ablation's Armijo and
# dogleg solvers (exp's globalise.go), in the service's problem draw
# (serve's worker.go), in the performance model every reply's
# model_seconds and model_energy_j come from (perfmodel.go), in the chaos
# fault injector's drift and bursts (fault's injector.go) and in the
# cache's warm-start distance (cache's store.go) is written
# float64(x*y)+z, which forbids fusion, so their bits match across
# architectures. A cross-built arm64 binary must show no fused instruction
# attributed to those nineteen basenames, none of which the standard
# library uses. The awk
# matches the basename exactly, so a file such as decode.go or node.go does
# not count as ode.go. Two binaries are searched: hybridpde links the
# experiments, and pdeserved links the service and the degradation ladder,
# whose homotopy rung (NewtonHomotopy) hybridpde never calls.
echo "== no fused multiply-add in band.go, cholesky.go, lu.go, dense.go, sparse.go, dopri.go, ode.go, newton.go, homotopy.go, burgers.go, burgers1d.go, semilinear.go, steady.go, accelerator.go, globalise.go, worker.go, perfmodel.go, injector.go, store.go (GOARCH=arm64 go tool objdump)"
GOARCH=arm64 go build -o "$transcripts/hybridpde-arm64" ./cmd/hybridpde
GOARCH=arm64 go build -o "$transcripts/pdeserved-arm64" ./cmd/pdeserved
fused=$({ go tool objdump "$transcripts/hybridpde-arm64"; go tool objdump "$transcripts/pdeserved-arm64"; } | awk '$1 ~ /^(band|cholesky|lu|dense|sparse|dopri|ode|newton|homotopy|burgers|burgers1d|semilinear|steady|accelerator|globalise|worker|perfmodel|injector|store)\.go:/' | grep -cE 'FMADDD|FMSUBD|FNMADDD|FNMSUBD' || true)
if [ "$fused" -ne 0 ]; then
	echo "band.go, cholesky.go, lu.go, dense.go, sparse.go, dopri.go, ode.go, newton.go, homotopy.go, burgers.go, burgers1d.go, semilinear.go, steady.go, accelerator.go, globalise.go, worker.go, perfmodel.go, injector.go and store.go compile to $fused fused multiply-adds on arm64; round each product with float64(...)" >&2
	exit 1
fi

# Every solve runs on nonlin.SparseSystem and the band factors. la's dense
# matrix and partial-pivoting LU stay only as the oracles the band and CSR
# kernels are tested against, so neither shipped binary may link them.
echo "== neither hybridpde nor pdeserved links la.FactorLU or la.NewDense (go tool nm)"
go build -o "$transcripts/pdeserved" ./cmd/pdeserved
dense=$(for b in hybridpde pdeserved; do go tool nm "$transcripts/$b"; done | awk '$NF ~ /internal\/la\.(FactorLU|NewDense)$/')
if [ -n "$dense" ]; then
	echo "$dense" >&2
	echo "a solve path calls la's dense oracle; run it on the band factors instead" >&2
	exit 1
fi

# The assembly counterpart of the step above: a hand-written kernel (la's
# AVX2 row update, a whole pivot step of the band Cholesky in one call,
# and the band LU's panel and four-pivot update kernels) rounds each
# product with its own multiply instruction, as its Go reference does, so
# no .s file may use a fused one.
echo "== no fused multiply-add instruction in internal/**/*.s"
if git grep -nE 'VFMADD|VFMSUB|VFNMADD|VFNMSUB' -- 'internal/**/*.s'; then
	echo "the assembly above fuses a multiply-add; use a separate multiply and add, as the Go reference does" >&2
	exit 1
fi

# bench/ is its own module, so ./... above never compiles it: an exported-API
# slip in serve, cluster or core would otherwise surface only when the
# benchmark itself runs.
echo "== benchmark module (go -C bench vet . && go -C bench test .)"
go -C bench vet .
go -C bench test .

echo "OK"
