// Package detred is the detred fixture: float accumulation whose trip
// count derives from the parallelism width (pool.Procs, GOMAXPROCS,
// NumCPU) breaks bit-identity across worker counts; cross-chunk sums
// belong in the fixed-block reductions.
package detred

import (
	"runtime"

	"hybridpde/internal/par"
)

// perWorkerPartials folds one partial per worker: the fold order (and the
// partial count) changes with the pool size.
func perWorkerPartials(pool *par.Pool, partial []float64) float64 {
	sum := 0.0
	for w := 0; w < pool.Procs(); w++ {
		sum += partial[w] // want
	}
	return sum
}

// viaVariable reaches the width through an intermediate variable.
func viaVariable(xs []float64) float64 {
	n := runtime.GOMAXPROCS(0)
	total := 0.0
	for i := 0; i < n; i++ {
		total = total + xs[i] // want
	}
	return total
}

// rangePartials iterates a procs-sized collection.
func rangePartials(pool *par.Pool) float64 {
	partials := make([]float64, pool.Procs())
	s := 0.0
	for _, p := range partials {
		s += p // want
	}
	return s
}

// fixedBlocks is the sanctioned layout: block boundaries depend only on
// the data size, so every pool width folds identically.
func fixedBlocks(xs []float64) float64 {
	const block = 2048
	s := 0.0
	for i := 0; i < len(xs); i += block {
		end := i + block
		if end > len(xs) {
			end = len(xs)
		}
		b := 0.0
		for j := i; j < end; j++ {
			b += xs[j]
		}
		s += b
	}
	return s
}

// intAccounting sums integers over a procs-dependent range: exact, exempt.
func intAccounting() int64 {
	n := runtime.NumCPU()
	var ops int64
	for i := 0; i < n; i++ {
		ops += int64(i)
	}
	return ops
}

// procsRebalance splits a core budget across a pool: pure integer
// division, exact at any pool width, so it is exempt by construction.
func procsRebalance(workers int) int {
	p := runtime.GOMAXPROCS(0) / workers
	if p < 1 {
		p = 1
	}
	return p
}

// allowedFold is a deliberate exception with its justification attached.
func allowedFold(pool *par.Pool, partial []float64) float64 {
	s := 0.0
	for w := 0; w < pool.Procs(); w++ {
		s += partial[w] //pdevet:allow detred partials are zero-padded to a fixed width; fold order is invariant
	}
	return s
}
