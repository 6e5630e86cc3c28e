// Command bench is the repository's one benchmark: seven workloads over
// the pool simulator and the live Figure-2 I/O chain, three end-to-end
// metrics on each, and per-layer counts, spans and probes from a
// separate traced run.  See README.md for what it measures and why, and
// BENCHMARK.json at the repository root for the contract it is run by.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runSeconds is how long one run measures by default; BENCHMARK.json
// repeats it as run_seconds.
const runSeconds = 10

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload and print the result line; default: run all of them")
		seed    = flag.Int64("seed", 42, "seed of every generated input")
		seconds = flag.Int("seconds", runSeconds, "start passes of a workload until this many seconds have gone by")
		trace   = flag.Int("trace", 0, "1: traced run (spans, counts, probes) reporting the per-layer metrics")
		sets    = flag.Int("sets", 0, "run all workloads 2N times, interleaved A1 B1 A2 B2 ..., and write set-A.json and set-B.json")
		compare = flag.Bool("compare", false, "compare two result files: bench -compare A.json B.json")
		outDir  = flag.String("out", "bench/out", "directory for results and traces")
		pass    = flag.Bool("pass", false, "internal: run one pass in this process and print its result")
		asJSON  = flag.Bool("benchmark-json", false, "print the registry as BENCHMARK.json and exit")
	)
	flag.Parse()
	if *asJSON {
		os.Stdout.Write(benchmarkJSON())
		return
	}
	if *compare {
		if flag.NArg() != 2 {
			fatalf("usage: bench -compare A.json B.json")
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 {
		fatalf("unexpected arguments %q", flag.Args())
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatalf("-seconds must be at least 1 and -trace 0 or 1")
	}
	traced := *trace == 1
	run := childPass(*outDir)

	switch {
	case *pass:
		w := mustWorkload(*name)
		if err := json.NewEncoder(os.Stdout).Encode(runPass(w, *seed, traced, *outDir)); err != nil {
			fatalf("%v", err)
		}
	case *name != "":
		w := mustWorkload(*name)
		var res *workloadResult
		if traced {
			res = traceWorkload(w, *seed, run)
		} else {
			res = measure(w, *seed, time.Duration(*seconds)*time.Second, run)
		}
		res.print(w)
		metrics := res.EndToEnd
		if traced {
			metrics = res.PerLayer
		}
		printResultLine(res, metrics)
		if !res.correct() {
			os.Exit(1)
		}
	case *sets > 0:
		if *sets < 2 {
			fatalf("-sets needs at least 2 passes per set")
		}
		a, b := runSets(*sets, *seed, time.Duration(*seconds)*time.Second, traced, run)
		for file, set := range map[string]*resultSet{"set-A.json": a, "set-B.json": b} {
			if err := writeJSON(filepath.Join(*outDir, file), set); err != nil {
				fatalf("%v", err)
			}
		}
		if !a.correct() || !b.correct() {
			os.Exit(1)
		}
	default:
		set := sweep(*seed, time.Duration(*seconds)*time.Second, traced, run)
		if err := writeJSON(filepath.Join(*outDir, "results.json"), set); err != nil {
			fatalf("%v", err)
		}
		if !set.correct() {
			os.Exit(1)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

func mustWorkload(name string) workload {
	w, ok := findWorkload(name)
	if !ok {
		var names []string
		for _, w := range workloads {
			names = append(names, w.Name)
		}
		fatalf("unknown workload %q; the workloads are %s", name, strings.Join(names, ", "))
	}
	return w
}

// passRunner runs one pass of a workload.  The command runs each pass
// in a fresh child process, so that every pass starts from an empty
// heap with default GC and GOMAXPROCS and its peak RSS is its own; the
// tests run passes in their own process.
type passRunner func(w workload, seed int64, traced bool) (*passResult, error)

func childPass(outDir string) passRunner {
	return func(w workload, seed int64, traced bool) (*passResult, error) {
		exe, err := os.Executable()
		if err != nil {
			return nil, err
		}
		trace := "0"
		if traced {
			trace = "1"
		}
		cmd := exec.Command(exe, "-pass", "-workload", w.Name, "-seed", strconv.FormatInt(seed, 10),
			"-trace", trace, "-out", outDir)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("pass of %s: %w", w.Name, err)
		}
		res := &passResult{}
		if err := json.Unmarshal(out, res); err != nil {
			return nil, fmt.Errorf("pass of %s: reading its result: %w", w.Name, err)
		}
		return res, nil
	}
}

// metricValue is one reported number.  An end-to-end value is the
// median of its samples, one per pass.
type metricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples,omitempty"`
}

// workloadResult is everything one run of one workload reports.
type workloadResult struct {
	Passes    int                    `json:"passes"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Digest    string                 `json:"digest"`
	Errors    []string               `json:"errors,omitempty"`
	EndToEnd  map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
	Shares    map[string]float64     `json:"shares,omitempty"`
}

func (r *workloadResult) correct() bool { return len(r.Errors) == 0 && r.Failed == 0 }

// add folds one finished pass into the result.
func (r *workloadResult) add(w workload, p *passResult, err error) *passResult {
	if err != nil {
		r.Errors = append(r.Errors, err.Error())
		r.Attempted++
		r.Failed++
		return nil
	}
	r.Passes++
	r.Attempted += p.Attempted
	r.Failed += p.Failed
	r.Errors = append(r.Errors, p.Errors...)
	switch {
	case r.Digest == "":
		r.Digest = p.Digest
	case r.Digest != p.Digest:
		r.Errors = append(r.Errors, fmt.Sprintf("%s: passes of one seed disagree: digest %s, then %s", w.Name, r.Digest, p.Digest))
	}
	return p
}

// checkTwin runs one pass of the workload whose outputs w must
// reproduce and compares digests.
func (r *workloadResult) checkTwin(w workload, seed int64, run passRunner) {
	if w.digestOf == "" || r.Digest == "" {
		return
	}
	twin, _ := findWorkload(w.digestOf)
	p, err := run(twin, seed, false)
	if err != nil {
		r.Errors = append(r.Errors, err.Error())
		return
	}
	if p.Digest != r.Digest {
		r.Errors = append(r.Errors, fmt.Sprintf("%s digest %s differs from %s digest %s", w.Name, r.Digest, twin.Name, p.Digest))
		r.Failed++
	}
}

// measure is the untraced run: it starts fixed-size passes of w until
// the time is up and reports each end-to-end metric's median.
func measure(w workload, seed int64, d time.Duration, run passRunner) *workloadResult {
	res := &workloadResult{EndToEnd: map[string]metricValue{}}
	samples := map[string][]float64{}
	for start := time.Now(); ; {
		p, err := run(w, seed, false)
		if err == nil {
			p.seal(w, false)
		}
		if p = res.add(w, p, err); p == nil {
			break
		}
		for _, m := range endToEnd {
			samples[m.Name] = append(samples[m.Name], p.Metrics[m.Name])
		}
		if time.Since(start) >= d {
			break
		}
	}
	for _, m := range endToEnd {
		res.EndToEnd[m.Name] = metricValue{Value: median(samples[m.Name]), Unit: m.Unit, Samples: samples[m.Name]}
	}
	res.checkTwin(w, seed, run)
	return res
}

// traceWorkload is the traced run: one untraced pass for reference,
// then one traced pass that keeps spans, runs the probes and reports
// the per-layer metrics.  The difference between the two passes'
// throughput is the tracing overhead.
func traceWorkload(w workload, seed int64, run passRunner) *workloadResult {
	res := &workloadResult{PerLayer: map[string]metricValue{}}
	ref, err := run(w, seed, false)
	if ref = res.add(w, ref, err); ref == nil {
		return res
	}
	p, err := run(w, seed, true)
	if err == nil {
		p.emit("trace.overhead_frac", 1-p.Metrics["throughput_per_s"]/ref.Metrics["throughput_per_s"])
		p.seal(w, true)
	}
	if p = res.add(w, p, err); p == nil {
		return res
	}
	for _, m := range perLayer {
		res.PerLayer[m.Name] = metricValue{Value: p.Metrics[m.Name], Unit: m.Unit}
	}
	res.Shares = p.Shares
	return res
}

// print lists every metric by name with its unit.
func (r *workloadResult) print(w workload) {
	fmt.Printf("workload %s  %s  passes=%d attempted=%d failed=%d\n", w.Name, w.sizes(), r.Passes, r.Attempted, r.Failed)
	fmt.Printf("  %-36s %s\n", "digest", r.Digest)
	for _, m := range endToEnd {
		if v, ok := r.EndToEnd[m.Name]; ok {
			fmt.Printf("  %-36s %14.6g %-6s spread %.3f over %d passes\n", m.Name, v.Value, v.Unit, spread(v.Samples), len(v.Samples))
		}
	}
	for _, m := range perLayer {
		if v, ok := r.PerLayer[m.Name]; ok && m.On&w.class != 0 {
			fmt.Printf("  %-36s %14.6g %s\n", m.Name, v.Value, v.Unit)
		}
	}
	shares := make([]string, 0, len(r.Shares))
	for layer := range r.Shares {
		shares = append(shares, layer)
	}
	sort.Strings(shares)
	for _, layer := range shares {
		fmt.Printf("  share of the measured region: %-24s %6.3f\n", layer, r.Shares[layer])
	}
	for _, e := range r.Errors {
		fmt.Printf("  INCORRECT: %s\n", e)
	}
}

// printResultLine prints the one JSON object the contract asks for as
// the last line of standard output.
func printResultLine(r *workloadResult, metrics map[string]metricValue) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), max(r.Attempted, 1), r.Failed, map[string]value{}}
	for name, v := range metrics {
		line.Metrics[name] = value{v.Value, v.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(b))
}

// header says where and how a result set was measured.
type header struct {
	Commit     string             `json:"commit"`
	Go         string             `json:"go"`
	GOOS       string             `json:"goos"`
	GOARCH     string             `json:"goarch"`
	NProc      int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	GOGC       string             `json:"gogc"`
	Seed       int64              `json:"seed"`
	RunSeconds float64            `json:"run_seconds"`
	WallS      map[string]float64 `json:"wall_s"`
	Sizes      map[string]string  `json:"sizes"`
}

func newHeader(seed int64, d time.Duration) header {
	h := header{
		Commit: "unknown", Go: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GOGC: "default",
		Seed: seed, RunSeconds: d.Seconds(), WallS: map[string]float64{}, Sizes: map[string]string{},
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	if v := os.Getenv("GOGC"); v != "" {
		h.GOGC = v
	}
	for _, w := range workloads {
		h.Sizes[w.Name] = w.sizes()
	}
	return h
}

// resultSet is one results file: every workload, one header.
type resultSet struct {
	Header    header                     `json:"header"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

func (s *resultSet) correct() bool {
	for _, r := range s.Workloads {
		if !r.correct() {
			return false
		}
	}
	return true
}

// sweep runs every workload once, untraced and then (if asked) traced.
func sweep(seed int64, d time.Duration, traced bool, run passRunner) *resultSet {
	set := &resultSet{Header: newHeader(seed, d), Workloads: map[string]*workloadResult{}}
	for _, w := range workloads {
		start := time.Now()
		res := measure(w, seed, d, run)
		if traced {
			t := traceWorkload(w, seed, run)
			res.PerLayer, res.Shares = t.PerLayer, t.Shares
			res.Errors = append(res.Errors, t.Errors...)
			res.Failed += t.Failed
			if t.Digest != res.Digest {
				res.Errors = append(res.Errors, fmt.Sprintf("%s: traced digest %s differs from untraced %s", w.Name, t.Digest, res.Digest))
			}
		}
		set.Header.WallS[w.Name] = time.Since(start).Seconds()
		set.Workloads[w.Name] = res
		res.print(w)
	}
	return set
}

// runSets makes the two interleaved sets the repeatability criterion
// compares: sweeps A1 B1 A2 B2 ... of the same code, each set reduced
// to medians over its own sweeps.
func runSets(n int, seed int64, d time.Duration, traced bool, run passRunner) (a, b *resultSet) {
	var as, bs []*resultSet
	for i := 0; i < n; i++ {
		fmt.Printf("== sweep A%d\n", i+1)
		as = append(as, sweep(seed, d, traced, run))
		fmt.Printf("== sweep B%d\n", i+1)
		bs = append(bs, sweep(seed, d, traced, run))
	}
	return mergeSets(as), mergeSets(bs)
}

// mergeSets reduces sweeps of one seed to one set: end-to-end samples
// are pooled and their median taken; a per-layer value is the median
// over sweeps, which for an exact count is the count itself unless the
// sweeps disagree — and that is an error.
func mergeSets(sweeps []*resultSet) *resultSet {
	out := &resultSet{Header: sweeps[0].Header, Workloads: map[string]*workloadResult{}}
	for _, w := range workloads {
		m := &workloadResult{EndToEnd: map[string]metricValue{}}
		layer := map[string][]float64{}
		for _, s := range sweeps {
			r := s.Workloads[w.Name]
			m.Passes += r.Passes
			m.Attempted += r.Attempted
			m.Failed += r.Failed
			m.Errors = append(m.Errors, r.Errors...)
			if m.Digest == "" {
				m.Digest = r.Digest
			} else if m.Digest != r.Digest {
				m.Errors = append(m.Errors, fmt.Sprintf("%s: sweeps of one seed disagree on the digest", w.Name))
			}
			for name, v := range r.EndToEnd {
				mv := m.EndToEnd[name]
				mv.Unit = v.Unit
				mv.Samples = append(mv.Samples, v.Samples...)
				m.EndToEnd[name] = mv
			}
			for name, v := range r.PerLayer {
				layer[name] = append(layer[name], v.Value)
			}
			m.Shares = r.Shares
		}
		for name, mv := range m.EndToEnd {
			mv.Value = median(mv.Samples)
			m.EndToEnd[name] = mv
		}
		for _, lm := range perLayer {
			vals, ok := layer[lm.Name]
			if !ok {
				continue
			}
			if m.PerLayer == nil {
				m.PerLayer = map[string]metricValue{}
			}
			m.PerLayer[lm.Name] = metricValue{Value: median(vals), Unit: lm.Unit}
			if lm.Exact && slices.Min(vals) != slices.Max(vals) {
				m.Errors = append(m.Errors, fmt.Sprintf("%s: count %s differs between sweeps of one seed: %v", w.Name, lm.Name, vals))
			}
		}
		out.Workloads[w.Name] = m
	}
	for _, s := range sweeps[1:] {
		for name, wall := range s.Header.WallS {
			out.Header.WallS[name] += wall
		}
	}
	return out
}
