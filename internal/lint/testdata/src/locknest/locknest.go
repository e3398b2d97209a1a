// Package locknest is the locknest fixture: direct nesting, nesting through
// a same-package call, a lock after a deferred unlock, a nested RLock, a
// recursive self-lock, an allow-suppressed nesting, and sequential
// lock/unlock negatives.
package locknest

import "sync"

type store struct {
	mu    sync.Mutex
	idx   sync.Mutex
	stats sync.RWMutex
}

// nested takes idx while holding mu.
func (s *store) nested() {
	s.mu.Lock()
	s.idx.Lock() // want
	s.idx.Unlock()
	s.mu.Unlock()
}

// helper locks mu on its own; harmless in isolation.
func (s *store) helper() {
	s.mu.Lock()
	s.mu.Unlock()
}

// viaCall takes mu through helper while holding idx.
func (s *store) viaCall() {
	s.idx.Lock()
	s.helper() // want
	s.idx.Unlock()
}

// deferred holds mu to the end of the function, so the later lock nests.
func (s *store) deferred() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.idx.Lock() // want
	s.idx.Unlock()
}

// readUnder nests a read lock; RLock blocks behind a writer just the same.
func (s *store) readUnder() {
	s.idx.Lock()
	s.stats.RLock() // want
	s.stats.RUnlock()
	s.idx.Unlock()
}

// double re-acquires a held mutex: guaranteed self-deadlock.
func (s *store) double() {
	s.stats.Lock()
	s.stats.Lock() // want
	s.stats.Unlock()
	s.stats.Unlock()
}

// sequential releases each mutex before taking the next; clean.
func (s *store) sequential() {
	s.mu.Lock()
	s.mu.Unlock()
	s.idx.Lock()
	s.idx.Unlock()
	s.helper()
}

// guardedRead locks and releases via defer with nothing nested; clean.
func (s *store) guardedRead() int {
	s.stats.RLock()
	defer s.stats.RUnlock()
	return 0
}

// snapshot nests knowingly: no path takes mu and then stats.
func (s *store) snapshot() {
	s.stats.Lock()
	s.mu.Lock() //pdevet:allow locknest no path takes mu and then stats
	s.mu.Unlock()
	s.stats.Unlock()
}
