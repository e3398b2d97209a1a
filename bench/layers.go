package main

import (
	"fmt"
	"sort"
)

// expectedDominant names, per workload, the layers predicted to hold the
// largest share of a request's time.
var expectedDominant = map[string][]string{
	"solve-miss":   {"la", "pde", "nonlin"},
	"solve-seeded": {"analog"},
	"fleet-replay": {"cluster", "serve"},
}

// layerMetrics turns the traced run's spans and accounts into the per-layer
// metrics, prints the layer table and writes the trace file. Spans from
// first on belong to the serial part.
func layerMetrics(c runConfig, tr *tracer, first int, t *traced, e *enactor, m map[string]float64) {
	spans := tr.spans
	self := tr.selfMs()
	n := len(t.accts)
	// nonPdeChild[p] sums p's children outside the pde layer: inside a ladder
	// span those are the analog seed and the cache lookups.
	nonPdeChild := make([]float64, len(spans))
	inRequest := make([]bool, len(spans)) // the span's root is a re-enacted request
	layerSelf := map[string]float64{}
	covered := make([]float64, n) // request → self time of its re-enactment's layer spans
	codec := make([]float64, n)   // request → decode + encode ms
	for i := first; i < len(spans); i++ {
		s := &spans[i]
		if s.Parent >= 0 {
			inRequest[i] = inRequest[s.Parent]
			if s.Layer != "pde" {
				nonPdeChild[s.Parent] += s.ms()
			}
		} else {
			inRequest[i] = s.Name == "request"
		}
		if inRequest[i] && s.Layer != "bench" {
			layerSelf[s.Layer] += self[i]
			covered[s.Request] += self[i]
		}
		switch s.Name {
		case "serve.decode", "serve.encode", "serve.frame":
			codec[s.Request] += s.ms() * 1e3
		}
	}
	us := func(name string) float64 { return medianOf(tr.durations(name)) * 1e3 }
	m["cluster.route_us_p50"] = us("cluster.route")
	m["serve.codec_us_p50"] = medianOf(codec)
	m["cache.key_us_p50"] = us("cache.key")
	m["cache.get_us_p50"] = us("cache.get")
	m["cache.put_us_p50"] = us("cache.put")
	m["cache.nearest_us_p50"] = us("cache.nearest")
	m["pde.eval_us_p50"] = us("pde.eval")
	m["pde.jacobian_us_p50"] = us("pde.jacobian")
	m["analog.build_ms"] = e.buildMs

	// End to end, paired by input.
	var hop, relay, overhead, coverage []float64
	for i := 0; i < n; i++ {
		on, direct := &t.on[i], &t.direct[i]
		if !on.ok || !direct.ok {
			continue
		}
		hop = append(hop, on.latencyMs-direct.latencyMs)
		relay = append(relay, (on.latencyMs-direct.latencyMs)*1e3/float64(on.frames))
		overhead = append(overhead, direct.latencyMs-direct.queueMs-direct.solveMs)
		coverage = append(coverage, covered[i]/on.latencyMs)
	}
	if c.w.gateway {
		m["cluster.hop_ms_p50"] = medianOf(hop)
	}
	if c.w.stream {
		m["cluster.stream_relay_us_per_frame"] = medianOf(relay)
	}
	m["serve.overhead_ms_p50"] = medianOf(overhead)
	m["serve.first_frame_ms_p50"] = medianOf(okField(t.direct, ttffOf))
	m["trace.coverage_ratio"] = medianOf(coverage)
	m["trace.overhead_ratio"] = ratio(medianOf(okField(t.on, latencyOf)), medianOf(okField(t.off, latencyOf)))

	var ladder, coreSelf, seed, newton, nonlinSelf, tau, seedRMS, perStep, firstStep []float64
	var factor, trisolve, spmv, norm []float64
	var iters, linSolves, refactors, dampings, rungs float64
	var solved, analogRan, accepted, rejected, degraded float64
	var laMs, nonlinMs, ladderSum, seedSum float64
	for i := range t.accts {
		a := &t.accts[i]
		units := 1.0 // ladder solves in this request
		if c.w.stream {
			units = float64(a.steps)
		}
		rungs += float64(a.rungAttempts) / units
		if a.degraded {
			degraded++
		}
		if a.sampled {
			m["core.golden_rms_err_max"] = max(m["core.golden_rms_err_max"], a.goldenRMS)
		}
		if a.analogUsed {
			analogRan++
			tau = append(tau, a.settleTau)
			if a.sampled {
				seedRMS = append(seedRMS, a.seedRMS)
			}
			if a.seedAccepted {
				accepted++
			}
			if a.seedRejected {
				rejected++
			}
		}
		ladderMs := spans[a.ladderSpan].ms()
		ladderSum += ladderMs
		if a.seedSpan >= 0 {
			seed = append(seed, spans[a.seedSpan].ms())
			seedSum += spans[a.seedSpan].ms()
		}
		// The Newton replay: one span per request, or one per step.
		replay := a.newtonSteps
		if a.newtonSpan >= 0 {
			replay = []int{a.newtonSpan}
		}
		if len(replay) == 0 {
			ladder = append(ladder, ladderMs)
			continue // a cache replay: no solver layer ran
		}
		solved++
		var newtonMs, newtonSelfMs float64
		for _, id := range replay {
			newtonMs += spans[id].ms()
			newtonSelfMs += self[id]
			if c.w.stream {
				newton = append(newton, spans[id].ms())
			}
		}
		k := &a.kern
		factor, trisolve = append(factor, k.factorUs), append(trisolve, k.trisolveUs)
		spmv, norm = append(spmv, k.spmvUs), append(norm, k.normUs)
		m["la.factor_madds"] = float64(k.madds)
		m["la.band_bytes"] = float64(k.bandBytes) // computed from n, kl, ku — not measured
		// The Newton span's self time holds the band kernels, which no seam
		// separates: price them from the replay's counts and this request's
		// own kernel timings.
		kernelsMs := (float64(a.digital.Refactorizations)*k.factorUs + float64(a.digital.LinearSolves)*k.trisolveUs) / 1e3
		laMs += kernelsMs
		nonlinMs += newtonSelfMs - kernelsMs
		iters += float64(a.digital.TotalIters) / units
		linSolves += float64(a.digital.LinearSolves) / units
		refactors += float64(a.digital.Refactorizations) / units
		dampings += float64(a.digital.Attempts) / units
		nonlinSelf = append(nonlinSelf, (newtonSelfMs-kernelsMs)/units)
		coreSelf = append(coreSelf, (ladderMs-nonPdeChild[a.ladderSpan]-newtonMs)/units)
		if c.w.stream {
			ladder = append(ladder, medianOf(a.stepMs[1:]))
			perStep = append(perStep, mean(a.stepMs))
			firstStep = append(firstStep, a.stepMs[0])
		} else {
			ladder = append(ladder, ladderMs)
			newton = append(newton, newtonMs)
		}
	}
	m["core.ladder_ms_p50"] = medianOf(ladder)
	m["core.self_ms_p50"] = medianOf(coreSelf)
	m["core.rung_attempts_mean"] = ratio(rungs, float64(n))
	m["core.seed_reject_ratio"] = ratio(rejected, analogRan)
	m["core.degraded_ratio"] = ratio(degraded, float64(n))
	m["core.timeloop_ms_per_step"] = medianOf(perStep)
	m["core.first_step_ms"] = medianOf(firstStep)
	m["analog.seed_ms_p50"] = medianOf(seed)
	m["analog.seed_share"] = ratio(seedSum, ladderSum)
	m["analog.settle_tau_p50"] = medianOf(tau)
	m["analog.seed_rms_err_p50"] = medianOf(seedRMS)
	m["analog.seed_accept_ratio"] = ratio(accepted, analogRan)
	m["nonlin.newton_ms_p50"] = medianOf(newton)
	m["nonlin.self_ms_p50"] = medianOf(nonlinSelf)
	m["nonlin.iters_mean"] = ratio(iters, solved)
	m["nonlin.linear_solves_mean"] = ratio(linSolves, solved)
	m["nonlin.refactor_ratio"] = ratio(refactors, linSolves)
	m["nonlin.damping_attempts_mean"] = ratio(dampings, solved)
	m["la.factor_us_p50"] = medianOf(factor)
	m["la.trisolve_us_p50"] = medianOf(trisolve)
	m["la.spmv_us_p50"] = medianOf(spmv)
	m["la.norm_us_p50"] = medianOf(norm)
	m["la.factor_gflops"] = ratio(2*m["la.factor_madds"], m["la.factor_us_p50"]*1e3)

	// The layer table. The ladder's self time contains the Newton loop and
	// the band kernels; move them out to their layers as priced above.
	layerSelf["la"] = laMs
	layerSelf["nonlin"] = nonlinMs
	layerSelf["core"] -= laMs + nonlinMs
	// What only the end-to-end pass sees, measured by difference: the
	// gateway's hop (batch window, relay) and the server's HTTP and admission.
	layerSelf["cluster"] += m["cluster.hop_ms_p50"] * float64(n)
	layerSelf["serve"] += m["serve.overhead_ms_p50"] * float64(n)
	printLayers(c, layerSelf, medianOf(okField(t.on, latencyOf)))
	if err := tr.write(c.w.name, layerSelf); err != nil {
		fmt.Fprintf(c.log, "# trace file not written: %v\n", err)
	}
}

// printLayers lists each layer's self time per request and its share, and
// says whether the predicted layers dominate.
func printLayers(c runConfig, layerSelf map[string]float64, e2eMs float64) {
	var names []string
	for name := range layerSelf {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return layerSelf[names[i]] > layerSelf[names[j]] })
	total := 0.0
	for _, name := range names {
		total += layerSelf[name]
	}
	n := float64(c.w.traceN)
	fmt.Fprintf(c.log, "# layer self time per request, mean of %d traced requests (serial end-to-end latency p50 %.4g ms)\n", c.w.traceN, e2eMs)
	for _, name := range names {
		fmt.Fprintf(c.log, "#   %-8s %10.4f ms  %5.1f%%\n", name, layerSelf[name]/n, 100*ratio(layerSelf[name], total))
	}
	want, ok := expectedDominant[c.w.name]
	if !ok {
		return
	}
	// The predicted layers dominate when together they hold more than any
	// other single layer.
	predicted, other := 0.0, 0.0
	isWanted := map[string]bool{}
	for _, name := range want {
		predicted += layerSelf[name]
		isWanted[name] = true
	}
	for _, name := range names {
		if !isWanted[name] {
			other = max(other, layerSelf[name])
		}
	}
	verdict := "holds"
	if predicted <= other {
		verdict = "DOES NOT HOLD"
	}
	fmt.Fprintf(c.log, "# predicted dominant %v: %.1f%% of self time — prediction %s\n", want, 100*ratio(predicted, total), verdict)
}
