package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"time"

	"hybridpde/internal/serve"
)

// Input phases partition the request-seed space, so no identity repeats
// within a run: a miss workload's every request is a miss by construction.
const (
	phaseWarm = iota
	phaseOpen
	phaseClosed
	phaseTrace
	phaseCheck
	phaseReplay
)

// laneStride is the seed block one lane (one closed-loop client) of a phase
// owns; far more than a lane can send in a run.
const laneStride = 100_000

// input is one generated request: the body the program sees, plus, on the
// replay workload, which set-up identity it repeats (-1 otherwise).
type input struct {
	body  []byte
	ident int
}

// gen makes every input of a run from the -seed argument: the same seed
// gives the same bodies in the same order on the same schedule.
type gen struct {
	w    *workload
	seed int64
}

func (g gen) reqSeed(phase, i int) int64 {
	return g.seed*10_000_000 + int64(phase)*1_000_000 + int64(i) + 1
}

// request builds the body for one shape and request seed.
func (g gen) request(sh shape, seed int64) []byte {
	req := serve.Request{Problem: sh.problem, N: sh.n, Seed: seed, Analog: g.w.analog}
	if g.w.stream {
		req.Steps = g.w.steps
	}
	b, err := json.Marshal(&req)
	if err != nil {
		panic(err) // a struct of ints, strings and bools always marshals
	}
	return b
}

// identity returns the k-th replay identity: shapes interleave, so identity
// k has shape k mod len(shapes).
func (g gen) identity(k int) []byte {
	return g.request(g.w.shapes[k%len(g.w.shapes)], g.reqSeed(phaseReplay, k))
}

func (g gen) identities() int { return replayIdentities * len(g.w.shapes) }

// source is the deterministic input sequence of one lane of one phase.
type source struct {
	g     gen
	phase int
	lane  int
	i     int
	rng   *rand.Rand
	deck  []int // replay: the identities not yet drawn in this round
}

func (g gen) source(phase, lane int) *source {
	return &source{g: g, phase: phase, lane: lane,
		rng: rand.New(rand.NewSource(g.seed*1_000 + int64(phase)*100 + int64(lane)))}
}

func (s *source) next() input {
	i := s.i
	s.i++
	if s.g.w.replay {
		// Identities are dealt without replacement, a fresh shuffle per
		// round: uniform over shapes and identities, and every stretch of
		// the run carries the same mix of cheap and dear replies.
		if len(s.deck) == 0 {
			s.deck = s.rng.Perm(s.g.identities())
		}
		k := s.deck[len(s.deck)-1]
		s.deck = s.deck[:len(s.deck)-1]
		return input{body: s.g.identity(k), ident: k}
	}
	return input{body: s.g.request(s.g.w.shapes[0], s.g.reqSeed(s.phase, s.lane*laneStride+i)), ident: -1}
}

func (s *source) take(n int) []input {
	out := make([]input, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

// schedule precomputes the open-loop due times from the run seed: a fixed
// rate with seeded jitter. The window is cut into rate × window equal slots
// and one request falls in the middle quarter of each, so gaps vary from 0.75
// to 1.25 slots and the count is exact. With Poisson arrivals, or one arrival
// anywhere in its slot, a few requests of every run meet a busy worker, and
// how many is the luck of the draw: the p90 of a 128-stream run sat on the
// edge between waiting and not, and spread by 57 % across seeds on an idle
// server. Queueing is what the closed loop measures.
func (g gen) schedule(rate float64, window time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(g.seed*1_000 + 999))
	due := make([]time.Duration, int(math.Round(rate*window.Seconds())))
	slot := float64(window) / float64(len(due))
	for i := range due {
		due[i] = time.Duration((float64(i) + 0.375 + 0.25*rng.Float64()) * slot)
	}
	return due
}
