package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// passResult is what one pass of one workload yields: the end-to-end
// metrics always, the per-layer metrics when the pass was traced.  A
// pass runs in its own process (see measure), so this is also the line
// the child prints for its parent.
type passResult struct {
	Workload  string `json:"workload"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Digest is the SHA-256 of every job's event log (pool-*) or of
	// the three final files (io-*); it repeats exactly for a seed.
	Digest string `json:"digest"`
	// Errors lists correctness failures; empty means correct.
	Errors  []string           `json:"errors,omitempty"`
	Metrics map[string]float64 `json:"metrics"`
	// Shares are the traced pass's layer shares (see traceSummary).
	Shares map[string]float64 `json:"shares,omitempty"`
}

func newPassResult(w workload) *passResult {
	return &passResult{Workload: w.Name, Metrics: map[string]float64{}}
}

func (r *passResult) failf(format string, args ...any) {
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

// emit records a metric; a second value for the same name is a bug in
// the benchmark and is reported as a correctness failure.
func (r *passResult) emit(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		// JSON cannot carry it, and it only arises from a run that
		// already failed (say, a mean over zero recoveries).
		r.failf("metric %s is %v", name, v)
		v = 0
	}
	if _, dup := r.Metrics[name]; dup {
		r.failf("metric %s emitted twice", name)
		return
	}
	r.Metrics[name] = v
}

// seal checks the emitted names against the registry and fills in 0
// for the per-layer metrics of layers this workload leaves idle.
func (r *passResult) seal(w workload, traced bool) {
	want := map[string]bool{}
	for _, m := range endToEnd {
		want[m.Name] = true
	}
	if traced {
		for _, m := range perLayer {
			if m.On&w.class != 0 {
				want[m.Name] = true
			} else if _, ok := r.Metrics[m.Name]; ok {
				r.failf("metric %s emitted on %s, where it is not defined", m.Name, w.Name)
			} else {
				r.Metrics[m.Name] = 0
				want[m.Name] = true
			}
		}
	}
	for name := range want {
		if _, ok := r.Metrics[name]; !ok {
			r.failf("metric %s not emitted on %s", name, w.Name)
		}
	}
	for name := range r.Metrics {
		if !want[name] {
			r.failf("metric %s is not in the registry", name)
		}
	}
}

// runPass runs one pass of w in this process.  Traced passes keep
// spans, run the probes afterwards and write the trace under outDir.
func runPass(w workload, seed int64, traced bool, outDir string) *passResult {
	res := newPassResult(w)
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	var probes func()
	if w.pool != nil {
		probes = runPool(*w.pool, seed, tr, res)
	} else {
		probes = runIO(*w.io, seed, tr, res)
	}
	res.emit("peak_rss_mb", peakRSSMB())
	if traced {
		emitGoStats(res, before)
		sum := tr.summarize(w.Name, seed)
		res.emit("trace.child_cover_frac", sum.childCover())
		if probes != nil {
			runtime.GC() // the probes start from a collected heap
			probes()
		}
		sum.Shares = res.Shares
		if err := tr.write(outDir, sum); err != nil {
			res.failf("writing trace: %v", err)
		}
	}
	return res
}

func emitGoStats(res *passResult, before runtime.MemStats) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	res.emit("go.alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
	res.emit("go.gc_cycles", float64(after.NumGC-before.NumGC))
	res.emit("go.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
	res.emit("go.gc_cpu_frac", after.GCCPUFraction)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
