package cluster

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"strconv"

	"hybridpde/internal/serve"
)

// handleStream is POST /v1/stream, the flush-through NDJSON tail behind the
// route prelude. The request is validated with the backends' own stream
// rules and walks the ring exactly like a solve, but the batching and dedup
// planes are bypassed — a trajectory is stateful and long-lived, so
// coalescing identical streams would entangle client lifetimes for no cache
// benefit.
//
// Failover stops at the first byte: transport errors and failover-class
// statuses walk the ring only while nothing has been written to the
// client. Once a frame is relayed the stream is committed to one backend;
// a mid-trajectory failure then surfaces as a truncated stream (no summary
// line with "done":true), never as a silent restart that would replay
// frames the client already processed.
func (g *Gateway) handleStream(w http.ResponseWriter, r *http.Request) {
	ctx, rt, ok := g.route(w, r, serve.EndpointStream)
	if !ok {
		return
	}
	defer rt.release()
	res, answered := g.failover(ctx, rt.shape, func(url string, attempt int) (dispatchResult, outcome, bool) {
		if attempt > 0 {
			g.m.streamFailovers.Inc()
		}
		return g.relayStream(ctx, w, url, rt.body)
	})
	if !answered {
		g.reply(w, res)
	}
}

// relayStream is one stream attempt. Before the first byte it behaves like
// a buffered attempt: a failover-class status is discarded (the walk moves
// on) and any other non-200 — 400, 429, 504 — comes back collected, for the
// caller to relay verbatim. A 200 commits the stream to this backend:
// answered=true, and the relay's own ending decides the outcome.
func (g *Gateway) relayStream(ctx context.Context, w http.ResponseWriter, url string, body []byte) (dispatchResult, outcome, bool) {
	resp, o, err := g.open(ctx, url, serve.EndpointStream, body)
	if resp == nil {
		return dispatchResult{err: err}, o, false
	}
	defer resp.Body.Close()
	if o == backendFailed {
		io.Copy(io.Discard, io.LimitReader(resp.Body, maxUpstreamBytes))
		return dispatchResult{err: errors.New("backend answered " + resp.Status)}, o, false
	}
	if resp.StatusCode != http.StatusOK {
		res, o := g.collect(ctx, url, resp, o)
		return res, o, false
	}

	// Relay flush-on-write — no whole-body buffering — counting frame lines
	// as they pass.
	g.m.requests.With(strconv.Itoa(http.StatusOK)).Inc()
	g.m.streamsProxied.Inc()
	w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
	w.WriteHeader(http.StatusOK)
	flusher, canFlush := w.(http.Flusher)
	buf := make([]byte, 32*1024)
	for {
		n, rerr := resp.Body.Read(buf)
		if n > 0 {
			g.m.streamFrames.Add(uint64(bytes.Count(buf[:n], []byte{'\n'})))
			if _, werr := w.Write(buf[:n]); werr != nil {
				// Client hung up; the backend sees the upstream request
				// context die when this handler returns.
				g.m.streamAborts.Inc()
				return dispatchResult{}, backendAnswered, true
			}
			if canFlush {
				flusher.Flush()
			}
		}
		if rerr == io.EOF {
			return dispatchResult{}, backendAnswered, true
		}
		if rerr != nil {
			// Mid-trajectory upstream failure after commitment: the client
			// keeps the frames it got; the missing summary line marks the
			// truncation. Charged to the backend (unless it was the request
			// context that died), but no failover — a restart would replay
			// frames.
			g.m.streamAborts.Inc()
			o, _ := g.transportFailure(ctx, url, rerr)
			return dispatchResult{}, o, true
		}
	}
}
