package main

import (
	"bytes"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// tiny shrinks a workload to test size; everything else — the mix, the
// faults, the legs, the code path — is the workload's own.
func tiny(w workload) workload {
	if w.pool != nil {
		s := *w.pool
		s.Machines, s.Java = 64, 256
		if s.Faulty {
			s.Broken, s.Standard = 4, 64
		}
		if len(s.Crashes) > 0 {
			s.Crashes = []time.Duration{10 * time.Minute, 20 * time.Minute, 30 * time.Minute}
		}
		w.pool = &s
	} else {
		s := *w.io
		s.FileSize, s.Warmup, s.Ops = 256<<10, 50, 500
		w.io = &s
	}
	return w
}

// inProcess runs tiny passes in the test's own process.
func inProcess(t *testing.T) passRunner {
	dir := t.TempDir()
	return func(w workload, seed int64, traced bool) (*passResult, error) {
		return runPass(tiny(w), seed, traced, dir), nil
	}
}

// TestEveryWorkload drives each workload through measure and
// traceWorkload at tiny size.  Correctness is the workloads' own:
// every job final with no incidental leak, the parallel digest equal
// to the serial one, the monitor stream equal to the record, every I/O
// reply and the final files equal to the local replay, and each
// declared metric emitted exactly once where it is defined.
func TestEveryWorkload(t *testing.T) {
	run := inProcess(t)
	digests := map[string]string{}
	for _, w := range workloads {
		res := measure(w, 42, 0, run)
		if !res.correct() {
			t.Errorf("%s: untraced run incorrect: failed=%d %v", w.Name, res.Failed, res.Errors)
		}
		if res.Passes != 1 || res.Attempted == 0 {
			t.Errorf("%s: passes=%d attempted=%d", w.Name, res.Passes, res.Attempted)
		}
		digests[w.Name] = res.Digest
		for _, m := range endToEnd {
			v, ok := res.EndToEnd[m.Name]
			if !ok || !(v.Value > 0) || v.Unit != m.Unit {
				t.Errorf("%s: end-to-end metric %s = %+v, want a positive value in %s", w.Name, m.Name, v, m.Unit)
			}
		}
		if len(res.EndToEnd) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end metrics, want %d", w.Name, len(res.EndToEnd), len(endToEnd))
		}

		traced := traceWorkload(w, 42, run)
		if !traced.correct() {
			t.Errorf("%s: traced run incorrect: failed=%d %v", w.Name, traced.Failed, traced.Errors)
		}
		if traced.Digest != res.Digest {
			t.Errorf("%s: traced digest differs from untraced", w.Name)
		}
		if len(traced.PerLayer) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics, want %d", w.Name, len(traced.PerLayer), len(perLayer))
		}
		for _, m := range perLayer {
			v := traced.PerLayer[m.Name].Value
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v", w.Name, m.Name, v)
			}
			if m.On&w.class == 0 && v != 0 {
				t.Errorf("%s: %s = %v on a workload that leaves its layer idle", w.Name, m.Name, v)
			}
		}
		if cover := traced.PerLayer["trace.child_cover_frac"].Value; cover < 0.95 {
			t.Errorf("%s: child spans cover %.3f of the root span, want at least 0.95", w.Name, cover)
		}
	}
	if digests["pool-wide"] != digests["pool-wide-par"] || digests["pool-wide"] == "" {
		t.Errorf("serial digest %q, parallel digest %q", digests["pool-wide"], digests["pool-wide-par"])
	}
}

// TestSeedMakesInputs: the same seed gives the same outputs, another
// seed others.
func TestSeedMakesInputs(t *testing.T) {
	run := inProcess(t)
	for _, name := range []string{"pool-faulty", "io-small"} {
		w, _ := findWorkload(name)
		a, _ := run(w, 7, false)
		b, _ := run(w, 7, false)
		c, _ := run(w, 8, false)
		if a.Digest != b.Digest {
			t.Errorf("%s: one seed, two digests", name)
		}
		if a.Digest == c.Digest {
			t.Errorf("%s: two seeds, one digest", name)
		}
	}
}

// TestTwinMismatchIsIncorrect: a parallel run whose digest differs
// from the serial twin's must not pass.
func TestTwinMismatchIsIncorrect(t *testing.T) {
	w, _ := findWorkload("pool-wide-par")
	res := &workloadResult{Digest: "not the serial digest"}
	res.checkTwin(w, 42, inProcess(t))
	if res.correct() {
		t.Errorf("a digest mismatch with the serial twin was accepted")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestRegistryWithinContract checks the registry against the limits
// the benchmark contract puts on BENCHMARK.json.
func TestRegistryWithinContract(t *testing.T) {
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet or length", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	for _, m := range endToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != higher && m.Better != lower) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v is outside the contract", m)
		}
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	for _, m := range perLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != higher && m.Better != lower) || m.On == 0 {
			t.Errorf("per-layer metric %+v is outside the contract", m)
		}
	}
}

// TestBenchmarkJSONMatchesRegistry: BENCHMARK.json is the registry as
// bench -benchmark-json prints it, byte for byte — no drift.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, benchmarkJSON()) {
		t.Errorf("BENCHMARK.json differs from the registry; regenerate it with bench/run.sh -benchmark-json > BENCHMARK.json")
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, the contract allows 64 KiB", len(got))
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{9, 1, 4, 10, 2, 7, 3, 8, 5, 6}
	if got, want := spread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := median(v); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got, want := spread([]float64{10, 11, 12}), 0.2/1.1; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread of three = %v, want the range over the median %v", got, want)
	}
}

func TestCompareVerdicts(t *testing.T) {
	steady := func(v float64) metricValue {
		return metricValue{Value: v, Samples: []float64{v * 0.995, v, v, v * 1.005}}
	}
	noisy := func(v float64) metricValue {
		return metricValue{Value: v, Samples: []float64{v * 0.7, v, v, v * 1.3}}
	}
	up := e2eMetric{"throughput_per_s", "1/s", higher, 0.10}
	down := e2eMetric{"setup_s", "s", lower, 0.25}
	for _, c := range []struct {
		m    e2eMetric
		a, b metricValue
		want string
	}{
		{up, steady(100), steady(95), verdictOK},
		{up, steady(100), steady(85), verdictWorse},
		{up, steady(100), steady(130), verdictOK},
		{up, steady(100), noisy(85), verdictUnresolved},
		{down, steady(1), steady(1.2), verdictOK},
		{down, steady(1), steady(1.3), verdictWorse},
		{down, steady(1), steady(0.5), verdictOK},
	} {
		if got := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("judge(%s, %v -> %v) = %s, want %s", c.m.Name, c.a.Value, c.b.Value, got, c.want)
		}
	}
}

func TestCompareSetsFlagsExactDifferences(t *testing.T) {
	set := func(events float64, digest string) *resultSet {
		s := &resultSet{Workloads: map[string]*workloadResult{}}
		for _, w := range workloads {
			r := &workloadResult{Digest: digest, EndToEnd: map[string]metricValue{}, PerLayer: map[string]metricValue{}}
			for _, m := range endToEnd {
				r.EndToEnd[m.Name] = metricValue{Value: 1, Samples: []float64{1, 1, 1, 1}}
			}
			r.PerLayer["sim.events"] = metricValue{Value: events}
			r.PerLayer["sim.host_ns_per_event"] = metricValue{Value: events} // not exact: may differ
			s.Workloads[w.Name] = r
		}
		return s
	}
	if worse, differ := compareSets(set(10, "d"), set(10, "d")); worse != 0 || differ != 0 {
		t.Errorf("equal sets: %d worse, %d differ", worse, differ)
	}
	if _, differ := compareSets(set(10, "d"), set(11, "d")); differ != len(workloads) {
		t.Errorf("a changed count: %d rows differ, want %d", differ, len(workloads))
	}
	if _, differ := compareSets(set(10, "d"), set(10, "e")); differ != len(workloads) {
		t.Errorf("a changed digest: %d rows differ, want %d", differ, len(workloads))
	}
}
