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
// bench-matchmaker, bench-obs, bench-pool, pool-smoke, flock-smoke,
// churn-smoke, ops-smoke, checkpoint-sweep, fault-sweep, fault-smoke,
// trace.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
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
		workers  = flag.Int("workers", runtime.GOMAXPROCS(0),
			"engine workers for the parallel bench arm (<=1 disables it)")
		benchOut = flag.String("bench-out", "BENCH_matchmaker.json",
			"output path for bench-matchmaker rows")
		benchObsOut = flag.String("bench-obs-out", "BENCH_obs.json",
			"output path for bench-obs rows")
		benchPoolOut = flag.String("bench-pool-out", "BENCH_pool.json",
			"output path for bench-pool rows")
		traceOut = flag.String("trace-out", "traces",
			"directory for per-class JSONL traces from the trace experiment")
		ckptOut = flag.String("checkpoint-sweep-out", "checkpoint_sweep.json",
			"output path for checkpoint-sweep rows")
	)
	flag.Parse()

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
		{"bench-matchmaker", func() (*experiments.Report, error) {
			rows, rep := experiments.BenchMatchmaker([]int{16, 128, 1024})
			data, err := json.MarshalIndent(rows, "", "  ")
			if err != nil {
				return nil, err
			}
			if err := os.WriteFile(*benchOut, append(data, '\n'), 0o644); err != nil {
				return nil, err
			}
			rep.AddNote("wrote %s", *benchOut)
			return rep, nil
		}, "matchmaker fast-path micro-benchmarks (writes BENCH_matchmaker.json)"},
		{"bench-obs", func() (*experiments.Report, error) {
			rows, rep := experiments.BenchObs()
			data, err := json.MarshalIndent(rows, "", "  ")
			if err != nil {
				return nil, err
			}
			if err := os.WriteFile(*benchObsOut, append(data, '\n'), 0o644); err != nil {
				return nil, err
			}
			rep.AddNote("wrote %s", *benchObsOut)
			return rep, nil
		}, "tracing overhead micro-benchmarks (writes BENCH_obs.json)"},
		{"bench-pool", func() (*experiments.Report, error) {
			rows, rep, err := experiments.BenchPool(*seed, *workers)
			if err != nil {
				return rep, err
			}
			data, err := json.MarshalIndent(rows, "", "  ")
			if err != nil {
				return nil, err
			}
			if err := os.WriteFile(*benchPoolOut, append(data, '\n'), 0o644); err != nil {
				return nil, err
			}
			rep.AddNote("wrote %s", *benchPoolOut)
			return rep, nil
		}, "pool-scale end-to-end throughput (writes BENCH_pool.json)"},
		{"pool-smoke", func() (*experiments.Report, error) {
			return experiments.PoolSmoke(*seed)
		}, "small-shape pool throughput smoke (reference == optimized == parallel gate)"},
		{"flock-smoke", func() (*experiments.Report, error) {
			return experiments.FlockSmoke(*seed)
		}, "federation smoke: flocked jobs complete, serial == rerun == parallel, peer-death zero loss"},
		{"churn-smoke", func() (*experiments.Report, error) {
			return experiments.ChurnSmoke(*seed)
		}, "machine-churn smoke: churned standard jobs complete, serial == rerun == parallel"},
		{"ops-smoke", func() (*experiments.Report, error) {
			return experiments.OpsSmoke(*seed)
		}, "ops-plane smoke: monitored + administered run byte-equal to bare, serial == rerun == parallel"},
		{"checkpoint-sweep", func() (*experiments.Report, error) {
			rows, rep, err := experiments.CheckpointSweep(*seed)
			if err != nil {
				return rep, err
			}
			data, jerr := json.MarshalIndent(rows, "", "  ")
			if jerr != nil {
				return nil, jerr
			}
			if jerr := os.WriteFile(*ckptOut, append(data, '\n'), 0o644); jerr != nil {
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
