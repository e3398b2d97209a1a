package cluster

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hybridpde/internal/cache"
)

func testKey(tag int64) cache.Key {
	var kb cache.KeyBuilder
	kb.Reset()
	kb.Str(1, "batch-test")
	kb.I64(2, tag)
	return kb.Sum()
}

// countingDispatch returns a dispatchFunc that counts calls and echoes
// the body back.
func countingDispatch(calls *atomic.Int64) dispatchFunc {
	return func(ctx context.Context, shape cache.Key, body []byte) dispatchResult {
		calls.Add(1)
		return dispatchResult{status: http.StatusOK, body: body}
	}
}

func TestBatcherDisabledDispatchesDirectly(t *testing.T) {
	var calls atomic.Int64
	b := newBatcher(0, 8, newGwMetrics())
	r := b.submit(context.Background(), testKey(1), testKey(1), []byte("x"), countingDispatch(&calls))
	if r.status != http.StatusOK || calls.Load() != 1 {
		t.Fatalf("direct dispatch: status=%d calls=%d", r.status, calls.Load())
	}
}

// TestBatcherDedupsIdenticalIdentity: concurrent same-identity requests
// collapse into one upstream call, and every waiter gets the result.
func TestBatcherDedupsIdenticalIdentity(t *testing.T) {
	var calls atomic.Int64
	m := newGwMetrics()
	b := newBatcher(time.Second, 4, m)
	shape, id := testKey(1), testKey(2)

	const waiters = 4 // == maxBatch, so the window flushes on full, not on the long timer
	var wg sync.WaitGroup
	results := make([]dispatchResult, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = b.submit(context.Background(), shape, id, []byte("same"), countingDispatch(&calls))
		}(i)
	}
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("upstream calls = %d, want 1", got)
	}
	for i, r := range results {
		if r.status != http.StatusOK || string(r.body) != "same" {
			t.Fatalf("waiter %d got %+v", i, r)
		}
	}
	if got := m.batchDeduped.Value(); got != waiters-1 {
		t.Fatalf("batch_deduped = %d, want %d", got, waiters-1)
	}
	// Requests that joined an open window: pdegw_batch_size_sum − pdegw_batches_total.
	if got := uint64(m.batchSize.Sum()) - m.batches.Value(); got != waiters-1 {
		t.Fatalf("coalesced = %d, want %d", got, waiters-1)
	}
	if got := m.batches.Value(); got != 1 {
		t.Fatalf("batches = %d, want 1", got)
	}
}

// TestBatcherDistinctIdentitiesShareWindow: same-shape requests with
// different identities flush in one window but each gets its own
// upstream call, in first-arrival order.
func TestBatcherDistinctIdentitiesShareWindow(t *testing.T) {
	var calls atomic.Int64
	b := newBatcher(time.Second, 3, newGwMetrics())
	shape := testKey(1)

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := b.submit(context.Background(), shape, testKey(int64(10+i)), []byte{byte(i)}, countingDispatch(&calls))
			if r.status != http.StatusOK || len(r.body) != 1 || r.body[0] != byte(i) {
				t.Errorf("waiter %d got wrong demuxed body: %+v", i, r)
			}
		}(i)
	}
	wg.Wait()
	if got := calls.Load(); got != 3 {
		t.Fatalf("upstream calls = %d, want 3 (one per identity)", got)
	}
}

// TestBatcherFollowerCtxCancel: a follower whose ctx dies stops waiting
// immediately; the batch completes without it.
func TestBatcherFollowerCtxCancel(t *testing.T) {
	var calls atomic.Int64
	b := newBatcher(200*time.Millisecond, 8, newGwMetrics())
	shape, id := testKey(1), testKey(2)

	leaderDone := make(chan dispatchResult, 1)
	go func() {
		leaderDone <- b.submit(context.Background(), shape, id, []byte("x"), countingDispatch(&calls))
	}()
	// Wait for the leader's window to open.
	for {
		b.mu.Lock()
		_, open := b.windows[shape]
		b.mu.Unlock()
		if open {
			break
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := b.submit(ctx, shape, id, []byte("x"), countingDispatch(&calls))
	if r.err == nil {
		t.Fatal("cancelled follower returned a result")
	}
	if got := resultStatus(r); got != http.StatusBadGateway {
		t.Fatalf("cancelled follower status = %d, want 502", got)
	}

	lr := <-leaderDone
	if lr.status != http.StatusOK {
		t.Fatalf("leader result = %+v", lr)
	}
}

func TestResultStatus(t *testing.T) {
	if got := resultStatus(dispatchResult{status: 200}); got != 200 {
		t.Fatalf("passthrough status = %d", got)
	}
	if got := resultStatus(dispatchResult{err: context.DeadlineExceeded}); got != http.StatusGatewayTimeout {
		t.Fatalf("deadline status = %d", got)
	}
	if got := resultStatus(dispatchResult{err: context.Canceled}); got != http.StatusBadGateway {
		t.Fatalf("generic error status = %d", got)
	}
}
