package serve

import (
	"context"
	"sync"
)

// DrainGate is the graceful-shutdown gate both tiers embed (Server here,
// cluster.Gateway in front): BeginDrain closes it to new requests, requests
// already inside run to completion, and Drain waits for them. The zero
// value is an open gate.
type DrainGate struct {
	mu       sync.Mutex
	draining bool
	inflight sync.WaitGroup
}

// Enter counts one request in and reports true, or reports false once the
// gate is draining; every true Enter is paired with exactly one Leave.
//
// The in-flight count is incremented under mu so it strictly precedes
// BeginDrain's flag flip: every request Drain's Wait can miss is one Enter
// has already refused, which keeps the WaitGroup's Add-versus-Wait
// ordering sound.
func (d *DrainGate) Enter() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.draining {
		return false
	}
	d.inflight.Add(1)
	return true
}

// Leave counts out a request Enter admitted.
func (d *DrainGate) Leave() { d.inflight.Done() }

// BeginDrain closes the gate: subsequent requests get 503 (and /healthz
// flips to not-ready) while requests already admitted run to completion.
// Safe to call repeatedly.
func (d *DrainGate) BeginDrain() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.draining = true
}

// Draining reports whether the gate is closed.
func (d *DrainGate) Draining() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.draining
}

// Drain closes the gate and blocks until every admitted request has
// completed or ctx expires. Callers typically pair it with
// http.Server.Shutdown:
//
//	srv.BeginDrain()
//	httpSrv.Shutdown(ctx) // stops listeners, waits for handlers
//	err := srv.Drain(ctx) // belt-and-braces on the solve side
func (d *DrainGate) Drain(ctx context.Context) error {
	d.BeginDrain()
	done := make(chan struct{})
	go func() {
		d.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
