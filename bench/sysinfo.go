package main

import (
	"bufio"
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads VmHWM, the process's peak resident set, in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64) // a malformed line reads as 0
				return kb / 1024
			}
		}
	}
	return 0
}

// resetPeakRSS restarts VmHWM from the current resident set. Where the kernel
// refuses, the peak stays the whole process's.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// clockTicksPerSecond is USER_HZ, the unit of /proc/stat: 100 on every Linux
// port Go supports.
const clockTicksPerSecond = 100

// stealTicks reads the hypervisor's steal counter: the time, in clock ticks
// summed over the CPUs, this machine was ready to run and the host ran
// someone else. It reads 0 where /proc/stat has none.
func stealTicks() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	// cpu user nice system idle iowait irq softirq steal ...
	if f := strings.Fields(line); len(f) > 8 && f[0] == "cpu" {
		v, _ := strconv.ParseFloat(f[8], 64) // a malformed line reads as 0
		return v
	}
	return 0
}

// scrape reads a handler's /metrics page in-process (no client connection)
// into series → value. A series is the sample line's name with its labels.
type scrape map[string]float64

func scrapeMetrics(h http.Handler) scrape {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	out := scrape{}
	sc := bufio.NewScanner(bytes.NewReader(rec.Body.Bytes()))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] += v
		}
	}
	return out
}

// sum adds every series of one family (bare or labelled).
func (s scrape) sum(family string) float64 {
	t := 0.0
	for k, v := range s { //pdevet:allow maprange counters are whole numbers: their sum is exact in any order
		if k == family || strings.HasPrefix(k, family+"{") {
			t += v
		}
	}
	return t
}

// byLabel returns one family's series values, ascending.
func (s scrape) byLabel(family string) []float64 {
	var out []float64
	for k, v := range s {
		if strings.HasPrefix(k, family+"{") {
			out = append(out, v)
		}
	}
	sort.Float64s(out)
	return out
}

// merge adds another page's series (the fleet's backends are summed).
func (s scrape) merge(o scrape) {
	for k, v := range o { //pdevet:allow maprange each series is added to its own key: no order to depend on
		s[k] += v
	}
}

// minus returns the per-series delta s − before.
func (s scrape) minus(before scrape) scrape {
	out := scrape{}
	for k, v := range s {
		out[k] = v - before[k]
	}
	return out
}
