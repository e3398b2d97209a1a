// Command bench is the repository's one benchmark: four workloads with a
// declared cache-hit mix, end-to-end metrics gated by BENCHMARK.json, and an
// outside-in per-layer trace. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload in this process and print its result line (default: run all four, each in a fresh child process)")
		seed    = flag.Int64("seed", 11, "seed every generated input derives from")
		seconds = flag.Int("seconds", 27, "measured window per workload, split about 2:1 between the open and the closed loop")
		trace   = flag.Int("trace", 0, "1 runs the separate traced run that yields the per-layer metrics")
		aa      = flag.Int("aa", 0, "run the suite this many times on the same build and compare the spread of every end-to-end metric with its bound")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: go -C bench run . [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-aa K]")
		os.Exit(2)
	}
	if *name == "" {
		os.Exit(runSuite(*seed, *seconds, *trace == 1, *aa))
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	c := runConfig{w: w, seed: *seed, seconds: *seconds, nproc: runtime.NumCPU(), log: os.Stdout}
	// One P beyond the cores, for the generator: with every P running a
	// solver, a due dispatch would wait for the runtime's 10 ms preemption
	// instead of the kernel's wake-up. The servers keep their nproc sizing.
	runtime.GOMAXPROCS(c.nproc + 1)
	run, defs := runUntraced, endToEnd
	if *trace == 1 {
		run, defs = runTraced, perLayer
	}
	out, err := run(c)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	printMetrics(os.Stdout, w.name+": "+w.why, defs, out.metrics, false)
	fmt.Println(resultLine(out, defs))
	if !out.correct {
		os.Exit(1)
	}
}

// resultLine is the contract's last line: exactly correct, attempted, failed
// and metrics, each metric with its value and unit.
func resultLine(out outcome, defs []metricDef) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{out.correct, out.attempted, out.failed, map[string]mv{}}
	for _, d := range defs {
		res.Metrics[d.name] = mv{out.metrics[d.name], d.unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		panic(err) // NaN or Inf in a metric: a bug in the harness
	}
	return string(b)
}
