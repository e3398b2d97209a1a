package serve

import (
	"hybridpde/internal/cache"
	"hybridpde/internal/core"
)

// Cache quantisation scales: request parameters are snapped to a 1e-6 grid
// before keying, so floats that agree to within half a micro-cell share a
// content address. The request deadline deliberately never participates —
// it bounds the computation, it does not change the answer.
const (
	cacheReScale    = 1e6
	cacheBoundScale = 1e6
)

// warmRadius is the parameter-space distance (Euclidean over (re, bound))
// within which a cached neighbour may warm-start a solve.
const warmRadius = 0.25

// CacheableKind reports whether a kind's solves are cacheable. Netlist
// requests are excluded: their fabric state is rebuilt per request and the
// response is already cheap. Exported for the cluster gateway, whose
// request-identity dedup follows the same split (grid kinds dedupe on
// SolveKey, netlist on the program-text shape key).
func CacheableKind(kind string) bool {
	switch kind {
	case KindBurgers2D, KindBurgersSteady, KindBurgers1D:
		return true
	}
	return false
}

// SolveKey digests the full content identity of a normalized request —
// the solve cache's exact-hit key, exported so the cluster gateway can
// deduplicate identical concurrent requests before they ever reach a
// backend connection. Every field that changes the solve's answer
// participates, with the continuation parameters quantised; call Normalize
// first — defaults participate in the digest.
//
//pdevet:noalloc
func SolveKey(req *Request, kb *cache.KeyBuilder) cache.Key {
	kb.Reset()
	kb.Str(1, req.Problem)
	kb.I64(2, int64(req.N))
	kb.I64(3, int64(req.Order))
	kb.F64Q(4, req.Re, cacheReScale)
	kb.F64Q(5, req.Bound, cacheBoundScale)
	kb.I64(6, req.Seed)
	kb.Str(7, req.Backend)
	kb.I64(8, boolKey(req.Analog))
	kb.I64(9, int64(req.AnalogVars))
	return kb.Sum()
}

// solveCacheBucket digests the identity minus the continuation coordinates
// (re, bound): entries in one bucket describe the same random-field
// realisation at different parameter points, which is exactly the set a
// warm start may legitimately continue from.
//
//pdevet:noalloc
func solveCacheBucket(req *Request, kb *cache.KeyBuilder) cache.Key {
	kb.Reset()
	kb.Str(1, req.Problem)
	kb.I64(2, int64(req.N))
	kb.I64(3, int64(req.Order))
	kb.I64(6, req.Seed)
	kb.Str(7, req.Backend)
	kb.I64(8, boolKey(req.Analog))
	kb.I64(9, int64(req.AnalogVars))
	return kb.Sum()
}

// ShapeKey digests the *shape* of a request — the identity a cluster
// gateway routes on. For grid kinds that is (problem id, n, order): every
// request sharing those fields exercises the same Jacobian pattern, the
// same per-worker problem cache and the same symbolic setup on a backend,
// so pinning a shape to one backend is what keeps that backend's caches
// hot. Seed and the continuation parameters (re, bound) deliberately do
// not participate: they select entries *within* a backend's caches, not
// which backend should hold them. Netlist requests key on the program text
// instead — identical programs pin together (and dedupe in flight),
// distinct programs spread across the ring.
//
// The tag space is disjoint from SolveKey's by the leading tag byte, so a
// shape key can never collide with a full content address.
//
//pdevet:noalloc
func ShapeKey(req *Request, kb *cache.KeyBuilder) cache.Key {
	kb.Reset()
	kb.Str(32, req.Problem)
	if req.Problem == KindNetlist {
		kb.Str(33, req.Netlist)
	} else {
		kb.I64(34, int64(req.N))
		kb.I64(35, int64(req.Order))
	}
	return kb.Sum()
}

//pdevet:noalloc
func boolKey(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// cachedSolve is the meta value stored with every cache entry: the core
// replay scalars plus the original response's ladder summary, so an exact
// repeat serves a byte-identical body (cache visibility lives in /metrics,
// not in the response).
type cachedSolve struct {
	core         core.CachedSolve
	seedAccepted bool
	degraded     bool
	rung         string
	seedRejected bool
	rungAttempts int
}

// cacheBinding adapts the server's shared cache.Store to core.SolveCache
// for one request at a time. Each worker owns one binding; solveGrid
// rebinds it per request, and the ladder's cache rungs consult it. A
// binding that is off (cache disabled, or a non-cacheable kind) makes both
// rungs skip, which keeps cache-off solves bit-identical to the
// pre-cache ladder.
type cacheBinding struct {
	store  *cache.Store
	key    cache.Key
	bucket cache.Key
	coords [2]float64
	// hit is the exact-hit meta consumed by this request, nil otherwise.
	hit *cachedSolve
	on  bool
}

// rebind points the binding at one request's identity; off bindings clear
// the previous request's state only.
//
//pdevet:noalloc
func (b *cacheBinding) rebind(on bool, key, bucket cache.Key, re, bound float64) {
	b.on = on
	b.hit = nil
	b.key = key
	b.bucket = bucket
	b.coords[0] = re
	b.coords[1] = bound
}

// Lookup implements core.SolveCache: an exact content-address hit.
//
//pdevet:noalloc
func (b *cacheBinding) Lookup(dst []float64) (core.CachedSolve, bool) {
	if !b.on {
		return core.CachedSolve{}, false
	}
	meta, ok := b.store.Get(b.key, dst)
	if !ok {
		return core.CachedSolve{}, false
	}
	cs := meta.(*cachedSolve)
	b.hit = cs
	return cs.core, true
}

// Nearest implements core.SolveCache: the warm-start continuation
// candidate from the same parameter bucket.
//
//pdevet:noalloc
func (b *cacheBinding) Nearest(dst []float64) bool {
	if !b.on {
		return false
	}
	_, _, ok := b.store.Nearest(b.bucket, b.coords[:], warmRadius, dst)
	return ok
}
