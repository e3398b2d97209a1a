package cluster

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"hybridpde/internal/cache"
)

// Same-shape request batching. Concurrent requests whose problems share a
// shape coalesce in a short bounded window and ship to one backend over
// one connection: the backend's per-shape worker caches, singleflight and
// warm-start continuation tier then amortise a single symbolic setup
// across the whole batch, and the gateway de-multiplexes the per-request
// responses. Requests with *identical* content identity collapse further:
// one upstream call serves every waiter (the gateway-side mirror of the
// backend's singleflight).
//
// The mechanics deliberately spawn nothing: the first request of a window
// is its leader, and the leader's handler goroutine performs the flush —
// waits out the window (or until the window fills), dispatches one
// upstream request per unique identity, and broadcasts results. Followers
// only wait on their result channel. Every goroutine involved is an HTTP
// handler the server (and the gateway's drain WaitGroup) already observes.

// dispatchResult is the demultiplexed outcome one waiter receives.
type dispatchResult struct {
	status     int
	body       []byte
	retryAfter string // Retry-After header passthrough on 429
	err        error  // set when no backend produced an answer to relay
}

// pendingEntry is one request waiting in a window. The entry carries no
// context — its handler goroutine keeps the ctx and selects on done
// against it — so a slow waiter can time out locally without stalling the
// batch.
type pendingEntry struct {
	identity cache.Key
	body     []byte
	done     chan dispatchResult // buffered 1: broadcast never blocks
	// abandoned is set by a follower whose client disconnected while
	// waiting in the window; flush skips such entries — and skips the
	// whole upstream call when every waiter of an identity is gone.
	abandoned atomic.Bool
}

// batchWindow collects same-shape entries until the leader flushes.
type batchWindow struct {
	entries []*pendingEntry
	full    chan struct{} // closed when the window reaches maxBatch
	fullSet bool
}

// dispatchFunc ships one request body to the shape's backend (with
// failover) and returns the response. Implemented by Gateway.dispatch.
type dispatchFunc func(ctx context.Context, shape cache.Key, body []byte) dispatchResult

// batcher coalesces same-shape requests. One mutex guards the window map
// and every window's entry list; the critical sections are O(append) tiny
// and never nest, and windows live for at most one batch window duration.
type batcher struct {
	mu       sync.Mutex
	windows  map[cache.Key]*batchWindow
	window   time.Duration
	maxBatch int
	m        *gwMetrics
}

func newBatcher(window time.Duration, maxBatch int, m *gwMetrics) *batcher {
	return &batcher{
		windows:  make(map[cache.Key]*batchWindow),
		window:   window,
		maxBatch: maxBatch,
		m:        m,
	}
}

// submit routes one request through the batching plane. The first caller
// for a shape becomes the window leader: it waits out the batch window,
// then dispatches the batch and broadcasts. Later same-shape callers join
// the window and wait. With batching disabled (window <= 0 or maxBatch
// <= 1), submit degenerates to a direct dispatch.
func (b *batcher) submit(ctx context.Context, shape, identity cache.Key, body []byte, dispatch dispatchFunc) dispatchResult {
	if b.window <= 0 || b.maxBatch <= 1 {
		b.m.batches.Inc()
		b.m.batchSize.Observe(1)
		return dispatch(ctx, shape, body)
	}

	e := &pendingEntry{identity: identity, body: body, done: make(chan dispatchResult, 1)}

	b.mu.Lock()
	if w, ok := b.windows[shape]; ok {
		// Follower: join the open window and wait for the leader's
		// broadcast (or give up locally when ctx expires — the batch
		// carries on without this waiter; its buffered channel absorbs
		// the late result).
		w.entries = append(w.entries, e)
		if len(w.entries) >= b.maxBatch && !w.fullSet {
			w.fullSet = true
			close(w.full)
		}
		b.mu.Unlock()
		select {
		case r := <-e.done:
			return r
		case <-ctx.Done():
			// The client hung up (or its deadline passed) while the window
			// was still open: mark the slot abandoned so the flush does not
			// dispatch on this waiter's behalf, and leave immediately.
			e.abandoned.Store(true)
			b.m.batchAbandoned.Inc()
			return dispatchResult{err: ctx.Err()}
		}
	}
	w := &batchWindow{entries: []*pendingEntry{e}, full: make(chan struct{})}
	b.windows[shape] = w
	b.mu.Unlock()

	// Leader: hold the window open briefly so concurrent same-shape
	// requests can pile in, then flush. A full window or a dying leader
	// ctx flushes early (the latter so followers are not stranded).
	t := time.NewTimer(b.window)
	select {
	case <-t.C:
	case <-w.full:
		t.Stop()
	case <-ctx.Done():
		t.Stop()
	}

	b.mu.Lock()
	delete(b.windows, shape)
	entries := w.entries
	b.mu.Unlock()

	b.flush(ctx, shape, entries, dispatch)
	return <-e.done
}

// flush groups a window's entries by content identity (arrival order
// preserved), dispatches one upstream request per unique identity under
// the leader's ctx, and broadcasts each result to all waiters sharing
// that identity.
func (b *batcher) flush(ctx context.Context, shape cache.Key, entries []*pendingEntry, dispatch dispatchFunc) {
	b.m.batches.Inc()
	b.m.batchSize.Observe(float64(len(entries)))

	// Group while preserving first-arrival order of identities; the map
	// only serves membership, iteration stays over the ordered slice.
	groups := make(map[cache.Key][]*pendingEntry, len(entries))
	order := make([]cache.Key, 0, len(entries))
	for _, e := range entries {
		if _, ok := groups[e.identity]; !ok {
			order = append(order, e.identity)
		}
		groups[e.identity] = append(groups[e.identity], e)
	}
	if d := len(entries) - len(order); d > 0 {
		b.m.batchDeduped.Add(uint64(d))
	}
	for _, id := range order {
		g := groups[id]
		lead := -1
		for i, e := range g {
			if !e.abandoned.Load() {
				lead = i
				break
			}
		}
		if lead < 0 {
			// Every waiter of this identity hung up before the flush:
			// skip the upstream call — nobody is left to read the answer.
			continue
		}
		r := dispatch(ctx, shape, g[lead].body)
		for _, e := range g {
			e.done <- r
		}
	}
}

// resultStatus is a dispatchResult's client-facing status: the one it
// carries (a backend's, or the gateway's own 429), else 504 for a spent
// deadline and 502 for any other failure to get an answer.
func resultStatus(r dispatchResult) int {
	switch {
	case r.status != 0:
		return r.status
	case errors.Is(r.err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	}
	return http.StatusBadGateway
}
