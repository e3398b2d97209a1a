package cluster

import (
	"context"
	"io"
	"net/http"
	"sync"
)

// MemberState is a backend's position in the membership state machine.
//
//	healthy --(probe failure / dispatch failure / readiness 503)--> evicted
//	evicted --(successful probe after the current backoff)--------> healthy
//
// Eviction doubles the member's re-probe backoff up to backoffMaxProbes;
// a successful re-add resets it. The consistent-hash ring itself never
// changes — an evicted member keeps its ring positions and is skipped by
// the failover walk, so its shapes come straight back to their warm caches
// on re-add instead of being redistributed twice.
type MemberState int

const (
	// StateHealthy members receive routed traffic.
	StateHealthy MemberState = iota
	// StateEvicted members are skipped by routing and probed on a
	// backoff schedule until they answer ready again.
	StateEvicted
)

// String renders the state for the /cluster endpoint and logs.
func (s MemberState) String() string {
	if s == StateHealthy {
		return "healthy"
	}
	return "evicted"
}

// member is one backend's mutable membership record. All fields are
// guarded by membership.mu.
type member struct {
	url   string
	state MemberState
	// consecutiveFails counts probe/dispatch failures since the last
	// success; crossing the eviction threshold flips the state.
	consecutiveFails int
	// backoffProbes is how many probe intervals to wait before the next
	// re-add attempt; it doubles per failed re-add up to the cap.
	backoffProbes int
	// waitProbes counts down intervals until the next re-add probe.
	waitProbes int
	// evictions and readds account the state machine's transitions.
	evictions uint64
	readds    uint64
}

// membership tracks the health of a fixed backend set. The set itself is
// immutable (it mirrors the ring); only per-member state changes.
type membership struct {
	mu      sync.Mutex
	members map[string]*member
	// evictThreshold is how many consecutive failures evict a healthy
	// member; 1 means the first failure does.
	evictThreshold int
	backoffMax     int
}

func newMembership(urls []string, evictThreshold, backoffMax int) *membership {
	if evictThreshold < 1 {
		evictThreshold = 1
	}
	if backoffMax < 1 {
		backoffMax = 8
	}
	ms := &membership{
		members:        make(map[string]*member, len(urls)),
		evictThreshold: evictThreshold,
		backoffMax:     backoffMax,
	}
	for _, u := range urls {
		ms.members[u] = &member{url: u, state: StateHealthy, backoffProbes: 1}
	}
	return ms
}

// healthy reports whether a member currently receives routed traffic.
func (ms *membership) healthy(url string) bool {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	m, ok := ms.members[url]
	return ok && m.state == StateHealthy
}

// healthyCount returns the number of members receiving traffic.
func (ms *membership) healthyCount() int {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	n := 0
	for _, m := range ms.members {
		if m.state == StateHealthy {
			n++
		}
	}
	return n
}

// markFailure records a probe or dispatch failure; it returns true when
// this failure evicted the member (the caller counts the transition).
func (ms *membership) markFailure(url string) bool {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	m, ok := ms.members[url]
	if !ok || m.state != StateHealthy {
		return false
	}
	m.consecutiveFails++
	if m.consecutiveFails < ms.evictThreshold {
		return false
	}
	m.state = StateEvicted
	m.evictions++
	m.waitProbes = m.backoffProbes
	return true
}

// markSuccess records a successful probe or dispatch. For an evicted
// member a successful *probe* re-adds it (dispatches are never sent to
// evicted members, so only the prober calls this for them); it returns
// true when this success re-added the member.
func (ms *membership) markSuccess(url string) bool {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	m, ok := ms.members[url]
	if !ok {
		return false
	}
	m.consecutiveFails = 0
	if m.state != StateEvicted {
		return false
	}
	m.state = StateHealthy
	m.backoffProbes = 1
	m.readds++
	return true
}

// dueForProbe decides, once per probe interval, whether a member should be
// probed this tick: healthy members always are; evicted members only when
// their backoff countdown reaches zero (the countdown doubles per failed
// re-add, bounded by backoffMax).
func (ms *membership) dueForProbe(url string) bool {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	m, ok := ms.members[url]
	if !ok {
		return false
	}
	if m.state == StateHealthy {
		return true
	}
	if m.waitProbes > 0 {
		m.waitProbes--
		return false
	}
	// This re-add attempt is due; pre-arm the next backoff in case it
	// fails. markSuccess resets it on a successful re-add.
	m.backoffProbes *= 2
	if m.backoffProbes > ms.backoffMax {
		m.backoffProbes = ms.backoffMax
	}
	m.waitProbes = m.backoffProbes
	return true
}

// snapshot returns a copy of one member's record.
func (ms *membership) snapshot(url string) (member, bool) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	m, ok := ms.members[url]
	if !ok {
		return member{}, false
	}
	return *m, true
}

// probeBackend checks one backend's readiness: GET /healthz must answer
// 200. Any transport error or non-200 — including the 503 a draining
// backend reports — counts as not ready.
func probeBackend(ctx context.Context, client *http.Client, url string) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}
