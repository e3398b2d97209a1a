package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// maxRepeats is how many times the suite repeats a workload whose generator
// ran late before reporting it anyway, marked invalid.
const maxRepeats = 2

// childResult is a child run's last stdout line.
type childResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runChild runs one workload in a fresh process — so peak_rss_mb and setup_s
// are the workload's own — echoing its report and returning its result line.
func runChild(w *workload, seed int64, seconds int, trace bool) (childResult, bool, error) {
	exe, err := os.Executable()
	if err != nil {
		return childResult{}, false, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", t)
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	last := lines[len(lines)-1]
	fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
	var res childResult
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		fmt.Println(last)
		if runErr != nil {
			return res, false, fmt.Errorf("%s: %w", w.name, runErr)
		}
		return res, false, fmt.Errorf("%s: no result line: %w", w.name, err)
	}
	// runErr here is the child's non-zero exit for an incorrect run; the
	// result line says so too.
	invalid := bytes.Contains(stdout, []byte("# INVALID"))
	return res, invalid, nil
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// header records what the numbers below were measured on and with.
func header(seed int64, seconds int) {
	c := runConfig{seconds: seconds}
	open, closed := c.windows()
	fmt.Printf("# bench: commit %s, %s, nproc %d, GOMAXPROCS %d in each workload's process (nproc + 1 for the generator), seed %d\n",
		gitCommit(), runtime.Version(), runtime.NumCPU(), runtime.NumCPU()+1, seed)
	fmt.Printf("# windows: open loop %s then closed loop %s per workload, timings from the quietest %g of each; set-up %d times or more, median reported\n", open, closed, quietShare, setupReps)
	for i := range workloads {
		w := &workloads[i]
		fmt.Printf("# %-12s open %g/s, closed %d clients — %s\n", w.name, w.openRate, runtime.NumCPU(), w.why)
	}
}

// runOnce runs every workload once (and its traced run when asked), returning
// the end-to-end results by workload.
func runOnce(seed int64, seconds int, trace bool) (map[string]childResult, bool) {
	ok := true
	results := map[string]childResult{}
	for i := range workloads {
		w := &workloads[i]
		for attempt := 0; ; attempt++ {
			res, invalid, err := runChild(w, seed, seconds, false)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				return results, false
			}
			if invalid && attempt < maxRepeats {
				fmt.Printf("# %s: repeating the invalid run (%d of %d)\n", w.name, attempt+1, maxRepeats)
				continue
			}
			results[w.name] = res
			ok = ok && res.Correct
			break
		}
		if trace {
			res, _, err := runChild(w, seed, seconds, true)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				return results, false
			}
			ok = ok && res.Correct
		}
	}
	return results, ok
}

// runSuite is the one command: every workload in a fresh child process,
// every metric printed by name with its unit, every output checked. With
// aa > 0 it is the A/A mode: the suite runs aa times on the same build and
// every workload × end-to-end metric's relative spread is compared with that
// metric's bound.
func runSuite(seed int64, seconds int, trace bool, aa int) int {
	header(seed, seconds)
	if aa <= 0 {
		if _, ok := runOnce(seed, seconds, trace); !ok {
			return 1
		}
		return 0
	}
	var sets []map[string]childResult
	for k := 0; k < aa; k++ {
		fmt.Printf("# A/A set %d of %d\n", k+1, aa)
		res, ok := runOnce(seed, seconds, false)
		if !ok {
			return 1
		}
		sets = append(sets, res)
	}
	fmt.Printf("# A/A: relative spread (max − min over the median) of %d sets against each metric's bound\n", aa)
	code := 0
	for i := range workloads {
		w := &workloads[i]
		for _, d := range endToEnd {
			var vs []float64
			for _, set := range sets {
				vs = append(vs, set[w.name].Metrics[d.name].Value)
			}
			dist := newDist(vs)
			spread := ratio(dist.max()-dist.sorted[0], math.Abs(dist.median()))
			verdict := "ok"
			if spread > d.bound {
				verdict = "EXCEEDS"
				code = 1
			}
			fmt.Printf("%-12s %-18s spread %7.4f  bound %5.2f  %s\n", w.name, d.name, spread, d.bound, verdict)
		}
	}
	return code
}
