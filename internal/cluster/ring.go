// Package cluster is the distributed-serving layer of the hybrid
// pipeline: a consistent-hash ring that pins problem *shapes* to
// backends, one health record (a circuit breaker) per backend, and a
// same-shape request batcher — the pieces cmd/pdegw composes into a
// stdlib-only gateway in front of N pdeserved backends.
//
// The routing invariant the whole package serves: a pdeserved backend
// amortises its expensive per-shape work (Jacobian patterns, per-worker
// problem caches, the content-addressed solve cache) across requests that
// share a problem shape. Routing by shape keeps each backend's caches hot
// the way a single process's worker pool does; the ring makes that
// assignment deterministic, stable under membership churn, and identical
// across gateway processes.
package cluster

import (
	"encoding/binary"
	"fmt"
	"sort"

	"hybridpde/internal/cache"
)

// DefaultVNodes is the virtual-node count per member: high enough that
// removing one member of a small fleet redistributes close to the ideal
// 1/N of the key space, low enough that ring construction stays trivial.
const DefaultVNodes = 64

// ringPoint is one virtual node: a hash position owned by a member.
type ringPoint struct {
	hash   uint64
	member int // index into Ring.members
}

// Ring is a deterministic consistent-hash ring over a fixed member set.
// Construction sorts the member list, so rings built from the same set in
// any order — in any process, at any GOMAXPROCS — assign every key
// identically. The ring itself is immutable after construction; health is
// the health records' concern, applied by walking Successors.
type Ring struct {
	members []string
	points  []ringPoint
}

// NewRing builds a ring with vnodes virtual nodes per member (DefaultVNodes
// when vnodes <= 0). Member names must be non-empty and distinct.
func NewRing(members []string, vnodes int) (*Ring, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one member")
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	sorted := append([]string(nil), members...)
	sort.Strings(sorted)
	for i, m := range sorted {
		if m == "" {
			return nil, fmt.Errorf("cluster: empty member name")
		}
		if i > 0 && sorted[i-1] == m {
			return nil, fmt.Errorf("cluster: duplicate member %q", m)
		}
	}
	r := &Ring{members: sorted, points: make([]ringPoint, 0, len(sorted)*vnodes)}
	var kb cache.KeyBuilder
	for mi, m := range sorted {
		for v := 0; v < vnodes; v++ {
			kb.Reset()
			kb.Str(1, m)
			kb.I64(2, int64(v))
			r.points = append(r.points, ringPoint{hash: keyPoint(kb.Sum()), member: mi})
		}
	}
	// Ties (astronomically unlikely with 64-bit SHA-256 prefixes) break by
	// member index so the order is still total and deterministic.
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].member < r.points[j].member
	})
	return r, nil
}

// keyPoint maps a content-address digest onto the ring's 64-bit circle:
// the first 8 bytes of the SHA-256, big-endian. Deterministic across
// processes and architectures.
func keyPoint(k cache.Key) uint64 {
	return binary.BigEndian.Uint64(k[:8])
}

// Members returns the sorted member list (aliases internal storage; do not
// mutate).
func (r *Ring) Members() []string { return r.members }

// Len returns the member count.
func (r *Ring) Len() int { return len(r.members) }

// owner returns the index of the first ring point at or after h,
// wrapping.
func (r *Ring) owner(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// Assign returns the member that owns key: the member of the first
// virtual node clockwise from the key's position.
func (r *Ring) Assign(key cache.Key) string {
	return r.members[r.points[r.owner(keyPoint(key))].member]
}

// Successors returns every member in ring order starting at key's owner:
// index 0 is Assign(key), the rest is the deterministic failover order a
// gateway walks when earlier members are unhealthy. Each member appears
// exactly once.
func (r *Ring) Successors(key cache.Key) []string {
	out := make([]string, 0, len(r.members))
	seen := make([]bool, len(r.members))
	start := r.owner(keyPoint(key))
	for i := 0; i < len(r.points) && len(out) < len(r.members); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.member] {
			seen[p.member] = true
			out = append(out, r.members[p.member])
		}
	}
	return out
}
