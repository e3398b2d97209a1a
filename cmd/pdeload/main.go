// Command pdeload drives open-loop load against a pdeserved instance or a
// pdegw gateway and reports the status breakdown and latency percentiles
// the smoke scripts assert on. Performance evidence comes from the repo
// benchmark (`go -C bench run .`), not from here.
//
// Usage:
//
//	pdeload [-url http://127.0.0.1:8080] [-rate 200] [-duration 10s]
//	        [-ramp START:END:STEPS] [-concurrency 64]
//	        [-problem burgers-steady] [-n 5] [-analog]
//	        [-seed-spread 16] [-re 1] [-re-step 0] [-re-count 1]
//	        [-out report.json] [-stream -steps K]
//
// -stream switches to the NDJSON streaming scenario: POST /v1/stream
// trajectories of -steps Crank–Nicolson steps against a transient
// -problem (burgers2d or burgers1d), read frame by frame as the server
// flushes them. The report adds time-to-first-frame percentiles,
// frames/sec and the TTFF/total-latency share — the streaming claim is
// that the first frame lands long before the trajectory completes.
//
// -ramp replaces the flat -rate with an open-loop ramp profile: -duration
// is split evenly into STEPS stages whose offered rates interpolate
// linearly from START to END requests per second. The report gains a
// ramp_steps array (per-step sent/2xx/429/5xx and p50) and a per-step
// summary line on stderr — the shape an autoscaler smoke test reads its
// evidence from.
//
// Open-loop means request launch times come from a fixed-rate ticker, not
// from completions: when the service is saturated the client keeps firing,
// which is what exposes the 429 load-shedding path instead of politely
// adapting to it. Launches beyond -concurrency outstanding requests are
// counted as local drops (the client's own backpressure) rather than
// blocking the schedule.
//
// -re-step/-re-count turn the run into a repeated parameter sweep: request
// i asks for re = -re + (i mod -re-count)·-re-step, so the same sweep
// points recur and a cache-enabled server can serve repeats by replay and
// near-neighbours by warm-started continuation. Pair sweeps with
// -seed-spread 1: warm starts only continue solutions of the same
// random-field realisation.
//
// The exit code is 1 when the run saw zero successful (2xx) responses, so
// smoke scripts can assert liveness with the shell alone.
//
//pdevet:allow walltime a load generator's whole job is measuring real wall-clock latency
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"hybridpde/internal/serve"
	"hybridpde/internal/stats"
)

// RampStepReport is one stage of a -ramp run.
type RampStepReport struct {
	Step         int     `json:"step"`
	RateRPS      float64 `json:"offered_rate_rps"`
	Sent         int     `json:"sent"`
	LocalDrops   int     `json:"local_drops"`
	OK           int     `json:"ok_2xx"`
	Shed         int     `json:"shed_429"`
	ServerErr    int     `json:"server_5xx"`
	TransportEr  int     `json:"transport_errors"`
	LatencyP50Ms float64 `json:"latency_p50_ms,omitempty"`
}

// Report is the machine-readable result, written as JSON to -out.
type Report struct {
	URL         string  `json:"url"`
	Problem     string  `json:"problem"`
	N           int     `json:"n"`
	Analog      bool    `json:"analog,omitempty"`
	RateRPS     float64 `json:"offered_rate_rps"`
	Duration    float64 `json:"duration_seconds"`
	Concurrency int     `json:"concurrency"`

	ReBase  float64 `json:"re_base,omitempty"`
	ReStep  float64 `json:"re_step,omitempty"`
	ReCount int     `json:"re_count,omitempty"`

	Sent        int `json:"sent"`
	LocalDrops  int `json:"local_drops"`
	OK          int `json:"ok_2xx"`
	Degraded    int `json:"degraded"`
	Shed        int `json:"shed_429"`
	ClientErr   int `json:"client_4xx"`
	ServerErr   int `json:"server_5xx"`
	TransportEr int `json:"transport_errors"`

	ThroughputRPS float64 `json:"throughput_rps"`
	LatencyP50Ms  float64 `json:"latency_p50_ms"`
	LatencyP90Ms  float64 `json:"latency_p90_ms"`
	LatencyP99Ms  float64 `json:"latency_p99_ms"`
	LatencyMaxMs  float64 `json:"latency_max_ms"`

	// Per-step breakdown of a -ramp run.
	RampSteps []RampStepReport `json:"ramp_steps,omitempty"`

	// Streaming scenario (-stream): NDJSON trajectories via POST
	// /v1/stream. TTFF is time-to-first-frame — the latency a streaming
	// client actually waits before results start arriving; the headline
	// claim is TTFFShareP50 ≪ 1 (the first frame lands long before the
	// trajectory completes). Total-latency percentiles reuse the latency_*
	// fields above.
	Stream       bool    `json:"stream,omitempty"`
	Steps        int     `json:"steps,omitempty"`
	StreamsDone  int     `json:"streams_done,omitempty"`
	FramesTotal  int     `json:"frames_total,omitempty"`
	FramesPerSec float64 `json:"frames_per_sec,omitempty"`
	TTFFP50Ms    float64 `json:"ttff_p50_ms,omitempty"`
	TTFFP90Ms    float64 `json:"ttff_p90_ms,omitempty"`
	TTFFP99Ms    float64 `json:"ttff_p99_ms,omitempty"`
	TTFFShareP50 float64 `json:"ttff_share_p50,omitempty"`

	Codes map[string]int `json:"codes"`
}

func main() {
	var (
		url        = flag.String("url", "http://127.0.0.1:8080", "pdeserved or pdegw base URL")
		rate       = flag.Float64("rate", 200, "offered load in requests per second")
		duration   = flag.Duration("duration", 10*time.Second, "how long to offer load")
		ramp       = flag.String("ramp", "", "open-loop ramp profile START:END:STEPS — split -duration into STEPS stages interpolating the rate from START to END rps (overrides -rate)")
		conc       = flag.Int("concurrency", 64, "max outstanding requests before the client drops locally")
		problem    = flag.String("problem", serve.KindBurgersSteady, "problem kind to request")
		n          = flag.Int("n", 5, "grid size of the requested problem")
		analog     = flag.Bool("analog", false, "request analog seeding")
		seedSpread = flag.Int64("seed-spread", 16, "cycle request seeds through [1, spread]")
		reBase     = flag.Float64("re", 1, "base Reynolds number of grid requests")
		reStep     = flag.Float64("re-step", 0, "Reynolds increment between sweep points (0 = no sweep)")
		reCount    = flag.Int("re-count", 1, "number of sweep points to cycle through")
		out        = flag.String("out", "", "write the JSON report to this file as well as stdout")
		stream     = flag.Bool("stream", false, "drive POST /v1/stream NDJSON trajectories instead of buffered solves (use a transient -problem: burgers2d or burgers1d)")
		steps      = flag.Int("steps", 64, "time steps per streamed trajectory (-stream only)")
	)
	flag.Parse()
	if *rate <= 0 || *duration <= 0 || *conc <= 0 {
		fmt.Fprintln(os.Stderr, "pdeload: -rate, -duration and -concurrency must be positive")
		os.Exit(2)
	}
	if *reCount < 1 || *reBase <= 0 {
		fmt.Fprintln(os.Stderr, "pdeload: -re must be positive and -re-count at least 1")
		os.Exit(2)
	}
	if *stream {
		runStream(streamConfig{
			url: *url, rate: *rate, duration: *duration, conc: *conc,
			problem: *problem, n: *n, steps: *steps, seedSpread: *seedSpread,
			re: *reBase, out: *out,
		})
		return
	}

	body := func(seed int64, re float64) []byte {
		b, err := json.Marshal(serve.Request{Problem: *problem, N: *n, Seed: seed, Re: re, Analog: *analog})
		if err != nil {
			fmt.Fprintln(os.Stderr, "pdeload:", err)
			os.Exit(2)
		}
		return b
	}
	client := &http.Client{Timeout: 60 * time.Second}

	profile, err := rampProfile(*ramp, *rate, *duration)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pdeload:", err)
		os.Exit(2)
	}

	type result struct {
		code     int
		seconds  float64
		degraded bool
		step     int
		err      error
	}
	results := make(chan result, 4096)
	slots := make(chan struct{}, *conc)

	rep := Report{
		URL: *url, Problem: *problem, N: *n, Analog: *analog,
		RateRPS: *rate, Duration: duration.Seconds(), Concurrency: *conc,
		ReBase: *reBase, ReStep: *reStep, ReCount: *reCount,
		Codes: map[string]int{},
	}
	var wg sync.WaitGroup
	begin := time.Now()

	stepStats := make([]RampStepReport, len(profile)) // LocalDrops/Sent from the launch loop, the rest from the drain

	i := int64(0)
	for stepIdx, st := range profile {
		stepStats[stepIdx] = RampStepReport{Step: stepIdx + 1, RateRPS: st.rate}
		interval := time.Duration(float64(time.Second) / st.rate)
		if interval <= 0 {
			interval = time.Microsecond
		}
		ticker := time.NewTicker(interval)
		stop := time.After(st.dur)
	launch:
		for ; ; i++ {
			select {
			case <-stop:
				break launch
			case <-ticker.C:
			}
			select {
			case slots <- struct{}{}:
			default:
				rep.LocalDrops++ // open loop: never block the schedule
				stepStats[stepIdx].LocalDrops++
				continue
			}
			rep.Sent++
			stepStats[stepIdx].Sent++
			seed := 1 + i%*seedSpread
			re := *reBase + float64(i%int64(*reCount))**reStep
			wg.Add(1)
			go func(seed int64, re float64, step int) {
				defer wg.Done()
				defer func() { <-slots }()
				start := time.Now()
				hr, err := client.Post(*url+"/v1/solve", "application/json",
					bytes.NewReader(body(seed, re)))
				if err != nil {
					results <- result{err: err, step: step}
					return
				}
				var sr struct {
					Degraded bool `json:"degraded"`
				}
				if hr.StatusCode >= 200 && hr.StatusCode < 300 {
					json.NewDecoder(hr.Body).Decode(&sr)
				}
				io.Copy(io.Discard, hr.Body)
				hr.Body.Close()
				results <- result{code: hr.StatusCode, seconds: time.Since(start).Seconds(),
					degraded: sr.Degraded, step: step}
			}(seed, re, stepIdx)
		}
		ticker.Stop()
	}
	go func() { wg.Wait(); close(results) }()

	var latencies []float64
	perStepLat := make([][]float64, len(profile))
	for r := range results {
		ss := &stepStats[r.step]
		if r.err != nil {
			rep.TransportEr++
			ss.TransportEr++
			continue
		}
		rep.Codes[fmt.Sprintf("%d", r.code)]++
		switch {
		case r.code >= 200 && r.code < 300:
			rep.OK++
			ss.OK++
			if r.degraded {
				rep.Degraded++
			}
			latencies = append(latencies, r.seconds)
			perStepLat[r.step] = append(perStepLat[r.step], r.seconds)
		case r.code == http.StatusTooManyRequests:
			rep.Shed++
			ss.Shed++
		case r.code >= 400 && r.code < 500:
			rep.ClientErr++
		default:
			rep.ServerErr++
			ss.ServerErr++
		}
	}
	elapsed := time.Since(begin).Seconds()

	if rep.OK > 0 {
		rep.ThroughputRPS = float64(rep.OK) / elapsed
		rep.LatencyP50Ms = 1000 * stats.Percentile(latencies, 50)
		rep.LatencyP90Ms = 1000 * stats.Percentile(latencies, 90)
		rep.LatencyP99Ms = 1000 * stats.Percentile(latencies, 99)
		sort.Float64s(latencies)
		rep.LatencyMaxMs = 1000 * latencies[len(latencies)-1]
	}
	if *ramp != "" {
		for i := range stepStats {
			if lat := perStepLat[i]; len(lat) > 0 {
				stepStats[i].LatencyP50Ms = 1000 * stats.Percentile(lat, 50)
			}
		}
		rep.RampSteps = stepStats
	}

	writeReport(&rep, *out)
	fmt.Fprintf(os.Stderr, "pdeload: status breakdown: 2xx=%d (degraded=%d) 429=%d other-4xx=%d 5xx=%d transport=%d local-drops=%d\n",
		rep.OK, rep.Degraded, rep.Shed, rep.ClientErr, rep.ServerErr, rep.TransportEr, rep.LocalDrops)
	for _, ss := range rep.RampSteps {
		fmt.Fprintf(os.Stderr, "pdeload: ramp step %d/%d: rate=%.1frps sent=%d 2xx=%d 429=%d 5xx=%d transport=%d local-drops=%d p50=%.2fms\n",
			ss.Step, len(rep.RampSteps), ss.RateRPS, ss.Sent, ss.OK, ss.Shed, ss.ServerErr, ss.TransportEr, ss.LocalDrops, ss.LatencyP50Ms)
	}
	if rep.OK == 0 {
		fmt.Fprintln(os.Stderr, "pdeload: no successful responses")
		os.Exit(1)
	}
}

// streamConfig is the resolved flag set of a -stream run.
type streamConfig struct {
	url        string
	rate       float64
	duration   time.Duration
	conc       int
	problem    string
	n          int
	steps      int
	seedSpread int64
	re         float64
	out        string
}

// runStream drives the -stream scenario: open-loop POST /v1/stream
// trajectories, each read line by line as the server flushes it, measuring
// time-to-first-frame separately from total latency. A stream counts as OK
// when it answered 200; done additionally requires the terminal summary
// line with "done":true (a 200 stream can still be truncated in-band).
func runStream(cfg streamConfig) {
	rep := Report{
		URL: cfg.url, Problem: cfg.problem, N: cfg.n,
		RateRPS: cfg.rate, Duration: cfg.duration.Seconds(), Concurrency: cfg.conc,
		Stream: true, Steps: cfg.steps,
		Codes: map[string]int{},
	}
	body := func(seed int64) []byte {
		b, err := json.Marshal(serve.Request{Problem: cfg.problem, N: cfg.n, Seed: seed, Re: cfg.re, Steps: cfg.steps})
		if err != nil {
			fmt.Fprintln(os.Stderr, "pdeload:", err)
			os.Exit(2)
		}
		return b
	}
	client := &http.Client{Timeout: 5 * time.Minute}

	type result struct {
		code    int
		ttff    float64 // seconds to the first flushed frame line
		total   float64 // seconds to stream end
		frames  int
		done    bool
		err     error
		errBody string
	}
	results := make(chan result, 4096)
	slots := make(chan struct{}, cfg.conc)
	var wg sync.WaitGroup
	begin := time.Now()

	interval := time.Duration(float64(time.Second) / cfg.rate)
	if interval <= 0 {
		interval = time.Microsecond
	}
	ticker := time.NewTicker(interval)
	stop := time.After(cfg.duration)
	i := int64(0)
launch:
	for ; ; i++ {
		select {
		case <-stop:
			break launch
		case <-ticker.C:
		}
		select {
		case slots <- struct{}{}:
		default:
			rep.LocalDrops++
			continue
		}
		rep.Sent++
		seed := 1 + i%cfg.seedSpread
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			defer func() { <-slots }()
			start := time.Now()
			hr, err := client.Post(cfg.url+"/v1/stream", "application/x-ndjson", bytes.NewReader(body(seed)))
			if err != nil {
				results <- result{err: err}
				return
			}
			defer hr.Body.Close()
			if hr.StatusCode != http.StatusOK {
				b, _ := io.ReadAll(io.LimitReader(hr.Body, 4096))
				results <- result{code: hr.StatusCode, errBody: strings.TrimSpace(string(b))}
				return
			}
			r := result{code: hr.StatusCode}
			sc := bufio.NewScanner(hr.Body)
			sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
			for sc.Scan() {
				line := sc.Bytes()
				if len(bytes.TrimSpace(line)) == 0 {
					continue
				}
				if r.ttff == 0 { //pdevet:allow floateq zero is the unset sentinel; measured times are positive
					r.ttff = time.Since(start).Seconds()
				}
				var sum struct {
					Done *bool `json:"done"`
				}
				if json.Unmarshal(line, &sum) == nil && sum.Done != nil {
					r.done = *sum.Done
				} else {
					r.frames++
				}
			}
			if sc.Err() != nil {
				r.err = sc.Err()
			}
			r.total = time.Since(start).Seconds()
			results <- r
		}(seed)
	}
	ticker.Stop()
	go func() { wg.Wait(); close(results) }()

	var ttffs, totals, shares []float64
	for r := range results {
		if r.err != nil && r.code == 0 {
			rep.TransportEr++
			continue
		}
		rep.Codes[fmt.Sprintf("%d", r.code)]++
		switch {
		case r.code == http.StatusOK:
			rep.OK++
			rep.FramesTotal += r.frames
			if r.done {
				rep.StreamsDone++
			}
			ttffs = append(ttffs, r.ttff)
			totals = append(totals, r.total)
			if r.total > 0 {
				shares = append(shares, r.ttff/r.total)
			}
		case r.code == http.StatusTooManyRequests:
			rep.Shed++
		case r.code >= 400 && r.code < 500:
			rep.ClientErr++
			if r.errBody != "" {
				fmt.Fprintf(os.Stderr, "pdeload: 4xx: %s\n", r.errBody)
			}
		default:
			rep.ServerErr++
		}
	}
	elapsed := time.Since(begin).Seconds()

	if rep.OK > 0 {
		rep.ThroughputRPS = float64(rep.OK) / elapsed
		rep.FramesPerSec = float64(rep.FramesTotal) / elapsed
		rep.LatencyP50Ms = 1000 * stats.Percentile(totals, 50)
		rep.LatencyP90Ms = 1000 * stats.Percentile(totals, 90)
		rep.LatencyP99Ms = 1000 * stats.Percentile(totals, 99)
		sort.Float64s(totals)
		rep.LatencyMaxMs = 1000 * totals[len(totals)-1]
		rep.TTFFP50Ms = 1000 * stats.Percentile(ttffs, 50)
		rep.TTFFP90Ms = 1000 * stats.Percentile(ttffs, 90)
		rep.TTFFP99Ms = 1000 * stats.Percentile(ttffs, 99)
		rep.TTFFShareP50 = stats.Percentile(shares, 50)
	}

	writeReport(&rep, cfg.out)
	fmt.Fprintf(os.Stderr, "pdeload: streams: 2xx=%d done=%d 429=%d 4xx=%d 5xx=%d transport=%d local-drops=%d\n",
		rep.OK, rep.StreamsDone, rep.Shed, rep.ClientErr, rep.ServerErr, rep.TransportEr, rep.LocalDrops)
	fmt.Fprintf(os.Stderr, "pdeload: frames=%d (%.1f/s); ttff p50=%.2fms p99=%.2fms; total p50=%.2fms p99=%.2fms; ttff/total p50=%.3f\n",
		rep.FramesTotal, rep.FramesPerSec, rep.TTFFP50Ms, rep.TTFFP99Ms, rep.LatencyP50Ms, rep.LatencyP99Ms, rep.TTFFShareP50)
	if rep.OK == 0 {
		fmt.Fprintln(os.Stderr, "pdeload: no successful streams")
		os.Exit(1)
	}
}

// writeReport encodes the report to stdout and, when set, to out.
func writeReport(rep *Report, out string) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "pdeload:", err)
		os.Exit(2)
	}
	if out == "" {
		return
	}
	f, err := os.Create(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pdeload:", err)
		os.Exit(2)
	}
	fenc := json.NewEncoder(f)
	fenc.SetIndent("", "  ")
	if err := fenc.Encode(rep); err != nil {
		f.Close()
		fmt.Fprintln(os.Stderr, "pdeload:", err)
		os.Exit(2)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "pdeload:", err)
		os.Exit(2)
	}
}

// rampStage is one stage of the resolved load profile: a flat -rate run is
// a single stage spanning the whole duration.
type rampStage struct {
	rate float64
	dur  time.Duration
}

// rampProfile resolves -ramp START:END:STEPS (or, when empty, the flat
// -rate) into the staged schedule the launch loop walks: total split
// evenly across the steps, rates interpolated linearly from START to END
// so the final stage offers exactly END rps.
func rampProfile(spec string, rate float64, total time.Duration) ([]rampStage, error) {
	if spec == "" {
		return []rampStage{{rate: rate, dur: total}}, nil
	}
	parts := strings.Split(spec, ":")
	if len(parts) != 3 {
		return nil, fmt.Errorf("-ramp %q: want START:END:STEPS", spec)
	}
	start, err1 := strconv.ParseFloat(parts[0], 64)
	end, err2 := strconv.ParseFloat(parts[1], 64)
	steps, err3 := strconv.Atoi(parts[2])
	if err1 != nil || err2 != nil || err3 != nil {
		return nil, fmt.Errorf("-ramp %q: want numeric START:END:STEPS", spec)
	}
	if start <= 0 || end <= 0 || steps < 1 {
		return nil, fmt.Errorf("-ramp %q: rates must be positive and STEPS at least 1", spec)
	}
	stages := make([]rampStage, steps)
	dur := total / time.Duration(steps)
	for k := range stages {
		r := start
		if steps > 1 {
			r = start + (end-start)*float64(k)/float64(steps-1)
		}
		stages[k] = rampStage{rate: r, dur: dur}
	}
	return stages, nil
}
