package cache

import (
	"math"
	"sync"
)

// DefaultCapacity is the entry cap used when New is given a non-positive
// capacity.
const DefaultCapacity = 4096

// maxBucketEntries bounds the per-bucket neighbour index so a Nearest scan
// is O(bucket cap) regardless of store capacity; when a bucket overflows,
// its oldest-inserted member is evicted from the whole store.
const maxBucketEntries = 128

// Stats is a snapshot of the store's counters.
type Stats struct {
	// Hits and Misses count exact Get outcomes; NearestHits counts Nearest
	// calls that returned a neighbour.
	Hits, Misses, NearestHits uint64
	// Puts counts insertions, Evictions LRU/bucket-overflow removals.
	Puts, Evictions uint64
}

// entry is one cached solve. Entries sit on the global LRU list (prev/next)
// and in their parameter bucket's slice.
type entry struct {
	key    Key
	bucket Key
	coords [maxCoords]float64
	nc     int
	u      []float64
	meta   any
	// LRU list links: prev is toward most-recent, next toward oldest.
	prev, next *entry
	// seq is the insertion order within the bucket (for overflow eviction).
	seq uint64
}

// maxCoords bounds the continuation-parameter dimensionality.
const maxCoords = 4

// Store is a bounded content-addressed result store with LRU eviction, a
// quantised-bucket neighbour index, and singleflight deduplication of
// identical in-flight solves. All methods are safe for concurrent use; Get
// and Nearest are allocation-free.
type Store struct {
	mu       sync.Mutex
	capacity int
	entries  map[Key]*entry
	buckets  map[Key][]*entry
	flights  map[Key]*Flight
	// head is most recently used, tail least.
	head, tail *entry
	seq        uint64
	stats      Stats
}

// New returns a store holding at most capacity entries (DefaultCapacity
// when capacity <= 0).
func New(capacity int) *Store {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Store{
		capacity: capacity,
		entries:  map[Key]*entry{},
		buckets:  map[Key][]*entry{},
		flights:  map[Key]*Flight{},
	}
}

// Len reports the current entry count.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Get copies the exact hit's solution into dst and returns the meta value
// stored with it. A missing key — or a stored solution whose length does
// not match dst — is a miss. A hit refreshes the entry's LRU position.
//
//pdevet:noalloc
func (s *Store) Get(key Key, dst []float64) (meta any, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entries[key]
	if e == nil || len(e.u) != len(dst) {
		s.stats.Misses++
		return nil, false
	}
	copy(dst, e.u)
	s.touch(e)
	s.stats.Hits++
	return e.meta, true
}

// Nearest finds the bucket member whose coordinates are closest to coords
// in Euclidean distance, within maxDist. On success the member's solution
// is copied into dst (members with mismatched solution length or
// coordinate count are skipped) and its meta value returned. The neighbour
// search intentionally includes exact matches; callers that want
// continuation-only behaviour should Get first.
//
//pdevet:noalloc
func (s *Store) Nearest(bucket Key, coords []float64, maxDist float64, dst []float64) (dist float64, meta any, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var best *entry
	bestD2 := maxDist * maxDist
	for _, e := range s.buckets[bucket] {
		if e.nc != len(coords) || len(e.u) != len(dst) {
			continue
		}
		d2 := 0.0
		for i, c := range coords {
			d := e.coords[i] - c
			d2 += float64(d * d)
		}
		if d2 <= bestD2 {
			best, bestD2 = e, d2
		}
	}
	if best == nil {
		return 0, nil, false
	}
	copy(dst, best.u)
	s.touch(best)
	s.stats.NearestHits++
	return math.Sqrt(bestD2), best.meta, true
}

// Put inserts (or refreshes) an entry: key is the exact content address,
// bucket the quantised parameter-bucket address, coords the continuation
// coordinates the neighbour search measures distance over (at most
// maxCoords values are kept), u the solution vector (copied), and meta an
// opaque caller value returned by Get/Nearest. Put is the cold path and
// may allocate.
func (s *Store) Put(key, bucket Key, coords, u []float64, meta any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.entries[key]; e != nil {
		// Refresh in place; the identity (and thus bucket/coords) is fixed
		// by the key, only the payload could differ.
		if len(e.u) == len(u) {
			copy(e.u, u)
		} else {
			e.u = append([]float64(nil), u...)
		}
		e.meta = meta
		s.touch(e)
		return
	}
	e := &entry{key: key, bucket: bucket, meta: meta, seq: s.seq}
	s.seq++
	e.u = append([]float64(nil), u...)
	e.nc = copy(e.coords[:], coords)
	s.entries[key] = e
	s.pushFront(e)
	s.buckets[bucket] = append(s.buckets[bucket], e)
	s.stats.Puts++
	if len(s.buckets[bucket]) > maxBucketEntries {
		s.evict(s.oldestInBucket(bucket))
	}
	for len(s.entries) > s.capacity {
		s.evict(s.tail)
	}
}

// Join, Done and Wait live in singleflight.go.

// touch moves e to the LRU front.
//
//pdevet:noalloc
func (s *Store) touch(e *entry) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}

//pdevet:noalloc
func (s *Store) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

//pdevet:noalloc
func (s *Store) pushFront(e *entry) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

// oldestInBucket returns the bucket member with the smallest insertion
// sequence.
func (s *Store) oldestInBucket(bucket Key) *entry {
	var oldest *entry
	for _, e := range s.buckets[bucket] {
		if oldest == nil || e.seq < oldest.seq {
			oldest = e
		}
	}
	return oldest
}

// evict removes e from the map, the LRU list, and its bucket.
func (s *Store) evict(e *entry) {
	if e == nil {
		return
	}
	delete(s.entries, e.key)
	s.unlink(e)
	bs := s.buckets[e.bucket]
	for i, b := range bs {
		if b == e {
			bs[i] = bs[len(bs)-1]
			bs = bs[:len(bs)-1]
			break
		}
	}
	if len(bs) == 0 {
		delete(s.buckets, e.bucket)
	} else {
		s.buckets[e.bucket] = bs
	}
	s.stats.Evictions++
}
