// Command experiments regenerates every figure and behavioural
// experiment of the paper, printing the same rows the paper reports.
//
// Usage:
//
//	experiments -run figure4          # one experiment
//	experiments -all                  # everything
//	experiments -list                 # enumerate experiment ids
//	experiments -all -seed 7 -jobs 200 -machines 40
//
// Experiment ids: figure1, figure2, figure3, figure4, naive,
// blackhole, mounts, migration, crashes, crash-recovery, principles,
// checkpoint-sweep, fault-sweep, fault-smoke, trace.
//
// Whole-pool determinism and cost are not experiments here: the shape
// table, TestShapes in internal/experiments, runs each pool shape
// serial, rerun and parallel under `go test` and pins its digest,
// exact counts and allocations in testdata/shapes.golden.
//
// checkpoint-sweep and trace write their output files (see
// -checkpoint-sweep-out and -trace-out) when selected with -run; under
// -all they write only to a path given explicitly on the command line.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/errscope/grid/internal/experiments"
)

func main() {
	var (
		run      = flag.String("run", "", "experiment id to run")
		all      = flag.Bool("all", false, "run every experiment")
		list     = flag.Bool("list", false, "list experiment ids")
		seed     = flag.Int64("seed", 42, "simulation seed")
		machines = flag.Int("machines", 20, "machines in pool experiments")
		jobs     = flag.Int("jobs", 100, "jobs in pool experiments")
		traceOut = flag.String("trace-out", "traces",
			"directory for per-class JSONL traces from the trace experiment")
		ckptOut = flag.String("checkpoint-sweep-out", "checkpoint_sweep.json",
			"output path for checkpoint-sweep rows")
	)
	flag.Parse()
	if *all {
		// -all is a sweep over every experiment, not a regeneration of
		// the output files: only a path the caller names is written.
		named := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { named[f.Name] = true })
		if !named["trace-out"] {
			*traceOut = ""
		}
		if !named["checkpoint-sweep-out"] {
			*ckptOut = ""
		}
	}

	type entry struct {
		id  string
		fn  func() (*experiments.Report, error)
		doc string
	}
	table := []entry{
		{"figure1", func() (*experiments.Report, error) {
			return experiments.Figure1(), nil
		}, "the Condor kernel protocol chain"},
		{"figure2", experiments.Figure2,
			"the Java Universe data path over real TCP"},
		{"figure3", func() (*experiments.Report, error) {
			return experiments.Figure3(), nil
		}, "error scopes and their handling programs"},
		{"figure4", func() (*experiments.Report, error) {
			r, _ := experiments.Figure4()
			return r, nil
		}, "JVM result codes with and without the wrapper"},
		{"naive", func() (*experiments.Report, error) {
			return experiments.NaiveVsScoped(*seed, *machines, *jobs,
				[]float64{0, 0.1, 0.25, 0.5}), nil
		}, "Section 2.3: incidental errors returned to users"},
		{"blackhole", func() (*experiments.Report, error) {
			return experiments.Blackhole(*seed, *machines, *jobs,
				[]float64{0, 0.1, 0.2, 0.3, 0.5},
				experiments.BlackholePolicies()), nil
		}, "Section 5: misconfigured machines as black holes"},
		{"mounts", func() (*experiments.Report, error) {
			return experiments.Mounts(*seed, *machines/2, *jobs/2,
				[]time.Duration{5 * time.Minute, 30 * time.Minute, 2 * time.Hour}), nil
		}, "Section 5: hard/soft/per-job mount policies"},
		{"migration", func() (*experiments.Report, error) {
			return experiments.Migration(*seed, *machines/2, *jobs/2,
				time.Hour, []float64{0, 0.25, 0.5}), nil
		}, "opportunistic cycles: checkpointing under owner churn"},
		{"crashes", func() (*experiments.Report, error) {
			return experiments.Crashes(*seed, *machines, *jobs, 0.25,
				[]time.Duration{30 * time.Minute, 2 * time.Hour, 12 * time.Hour}), nil
		}, "Section 5: silent machine crashes discovered by time"},
		{"crash-recovery", func() (*experiments.Report, error) {
			return experiments.CrashRecovery(*seed)
		}, "submit-side durability: schedd crash at every phase, journal recovery"},
		{"principles", func() (*experiments.Report, error) {
			return experiments.Principles(), nil
		}, "the four principles, violated and obeyed"},
		{"checkpoint-sweep", func() (*experiments.Report, error) {
			rows, rep, err := experiments.CheckpointSweep(*seed)
			if err != nil {
				return rep, err
			}
			if *ckptOut == "" {
				return rep, nil
			}
			data, jerr := experiments.CheckpointSweepJSON(rows)
			if jerr != nil {
				return nil, jerr
			}
			if jerr := os.WriteFile(*ckptOut, data, 0o644); jerr != nil {
				return nil, jerr
			}
			rep.AddNote("wrote %s", *ckptOut)
			return rep, nil
		}, "checkpoint interval vs churn: the Garba overhead-vs-rework curve (writes checkpoint_sweep.json)"},
		{"fault-sweep", func() (*experiments.Report, error) {
			return experiments.FaultSweep(*seed)
		}, "fault-injection conformance: every error class at >= 3 sites"},
		{"fault-smoke", func() (*experiments.Report, error) {
			return experiments.FaultSweepSmoke(*seed)
		}, "fault-injection smoke subset (one site per class)"},
		{"trace", func() (*experiments.Report, error) {
			rep, traces, err := experiments.Traces(*seed)
			if err != nil {
				return rep, err
			}
			if *traceOut != "" {
				if err := os.MkdirAll(*traceOut, 0o755); err != nil {
					return rep, err
				}
				for class, jsonl := range traces {
					path := filepath.Join(*traceOut, class+".jsonl")
					if err := os.WriteFile(path, []byte(jsonl), 0o644); err != nil {
						return rep, err
					}
				}
				rep.AddNote("wrote %d traces under %s/", len(traces), *traceOut)
			}
			return rep, nil
		}, "error-propagation traces per fault class (writes traces/*.jsonl)"},
	}

	if *list {
		for _, e := range table {
			fmt.Printf("%-12s %s\n", e.id, e.doc)
		}
		return
	}
	ran := false
	for _, e := range table {
		if *all || e.id == *run {
			r, err := e.fn()
			if r != nil {
				// A conformance run reports its cells even when some
				// fail; show them before deciding the exit status.
				fmt.Println(r.Format())
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.id, err)
				os.Exit(1)
			}
			ran = true
		}
	}
	if !ran {
		fmt.Fprintln(os.Stderr, "experiments: nothing to run; use -run <id>, -all, or -list")
		os.Exit(2)
	}
}
