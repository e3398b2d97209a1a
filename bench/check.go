package main

import (
	"fmt"
	"slices"
)

// determinismSample is how many stream identities are replayed both ways.
const determinismSample = 2

// checkDeterminism replays a fixed sample of stream identities through the
// gateway and straight to the owning backend: the per-frame checksums must
// agree. (The replay workload's determinism — bodies byte-identical to the
// set-up pass — is checked on every operation.) A violation fails the run.
func checkDeterminism(c runConfig, f *fleet, p *pool) bool {
	if !c.w.stream {
		return true
	}
	ok := true
	l := p.lanes[0]
	owner := f.owner(c.w.shapes[0])
	for i, in := range c.gen().source(phaseCheck, 0).take(determinismSample) {
		via := l.stream(f.target, in.body, c.w.steps)
		viaSums := slices.Clone(via.sums)
		p.idle()
		direct := l.stream(owner.url, in.body, c.w.steps)
		p.idle()
		switch {
		case via.fail != "" || direct.fail != "":
			fmt.Fprintf(c.log, "# DETERMINISM: sample stream %d failed: via gateway %q, direct %q\n", i, via.fail, direct.fail)
			ok = false
		case !slices.Equal(viaSums, direct.sums):
			fmt.Fprintf(c.log, "# DETERMINISM: sample stream %d: frame checksums differ direct vs via gateway\n", i)
			ok = false
		}
	}
	return ok
}
