package experiments

import (
	"fmt"
	"strings"
	"time"

	"github.com/errscope/grid/internal/daemon"
	"github.com/errscope/grid/internal/pool"
)

// PoolSmoke is the make-check gate for the throughput path: one small
// uniform pool driven through full job lifecycles serial, rerun, and
// on the parallel engine, with every job's full event log
// byte-compared across all three and every job required to complete,
// plus a golden-trace spot check of one canonical fault cell on the
// parallel engine against the serial export.
func PoolSmoke(seed int64) (*Report, error) {
	rep := &Report{
		ID:      "pool-smoke",
		Title:   "pool throughput smoke: small shape, serial == rerun == parallel",
		Headers: []string{"arm", "machines", "jobs", "completed", "sim min", "dispositions"},
	}
	const (
		smokeWorkers = 4
		jobs         = 256
		machines     = 64
	)

	run := func(workers int) (*pool.Pool, time.Duration, string) {
		p := pool.New(pool.Config{
			Seed:     seed,
			Params:   daemon.DefaultParams(),
			Machines: pool.UniformMachines(machines, 2048),
			Workers:  workers,
		})
		p.SubmitJava(jobs, pool.UniformCompute(5*time.Minute))
		simDur := p.Run(7 * 24 * time.Hour)
		return p, simDur, poolDispositions(p)
	}

	p, simDur, serial := run(0)
	_, _, rerun := run(0)
	_, _, par := run(smokeWorkers)

	var err error
	verdict := "equal"
	if serial != rerun {
		verdict = "DIVERGED"
		err = fmt.Errorf("pool-smoke: rerun dispositions diverge from the first run")
	}
	if par != serial {
		verdict = "DIVERGED"
		err = fmt.Errorf("pool-smoke: parallel dispositions diverge from serial")
	}
	m := p.Metrics()
	if err == nil && m.Completed != jobs {
		err = fmt.Errorf("pool-smoke: %d of %d jobs completed", m.Completed, jobs)
	}
	for _, arm := range []string{"serial", "rerun", "parallel"} {
		rep.AddRow(arm, fmt.Sprint(machines), fmt.Sprint(jobs), fmt.Sprint(m.Completed),
			fmt.Sprintf("%.0f", simDur.Minutes()), verdict)
	}

	if err == nil {
		// One canonical fault cell on the parallel engine against the
		// serial export: the golden-trace spot check.
		if cells := canonicalSimCells(); len(cells) > 0 {
			serialJSONL, _, serr := cells[0].simTrace(seed, 0)
			parJSONL, _, perr := cells[0].simTrace(seed, smokeWorkers)
			switch {
			case serr != nil:
				err = fmt.Errorf("pool-smoke trace cell: %v", serr)
			case perr != nil:
				err = fmt.Errorf("pool-smoke parallel trace cell: %v", perr)
			case serialJSONL != parJSONL:
				err = fmt.Errorf("pool-smoke: parallel golden trace diverged from serial")
			default:
				rep.AddNote("golden-trace spot check (%s) serial == parallel", cells[0].class)
			}
		}
	}
	return rep, err
}

// poolDispositions renders every job's full event log in a fixed
// order — the byte-exact record of what the pool decided and when.
func poolDispositions(p *pool.Pool) string {
	var sb strings.Builder
	for _, s := range p.Schedds {
		for _, j := range s.Jobs() {
			fmt.Fprintf(&sb, "== %s job %d %s\n", s.Name(), j.ID, j.State)
			sb.WriteString(j.EventLog())
		}
	}
	return sb.String()
}
