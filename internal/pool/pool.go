// Package pool assembles complete Condor pools on the simulation
// engine — matchmaker, schedd, machines — generates workloads, and
// collects the metrics the paper's experiments report: goodput,
// badput, requeues, and the number of incidental errors leaked to
// users.
package pool

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/errscope/grid/internal/daemon"
	"github.com/errscope/grid/internal/jvm"
	"github.com/errscope/grid/internal/scope"
	"github.com/errscope/grid/internal/sim"
)

// Config describes a pool to build.
type Config struct {
	// Seed drives all randomness; equal seeds give equal traces.
	Seed int64
	// Params are the kernel protocol parameters.
	Params daemon.Params
	// Machines are the execution machines.
	Machines []daemon.MachineConfig
	// Schedds is the number of submit points (default 1).  Multiple
	// schedds share the matchmaker and compete for machines, as in a
	// real multi-user pool.
	Schedds int
	// MsgLatency is the one-way bus latency (default 5ms).
	MsgLatency time.Duration
	// Workers is the engine's intra-instant concurrency: same-instant
	// events of different daemons run on this many goroutines, with a
	// barrier at every instant boundary.  Values <= 1 keep the engine
	// strictly serial.  Traces, dispositions, and exports are byte-equal
	// across settings — parallelism is an execution detail, never an
	// observable one.
	Workers int
	// Churn, if non-nil, makes the machine population dynamic: owners
	// reclaim and release their machines on a seeded schedule, as on
	// the idle-workstation pools the paper ran on.
	Churn *ChurnConfig
}

// ChurnConfig describes deterministic machine churn: every machine
// alternates between serving the pool and being away, with per-machine
// phases drawn from a seeded generator — equal seeds give equal
// schedules, so churned runs replay byte-equal like everything else.
type ChurnConfig struct {
	// Seed drives the schedule; 0 borrows the pool seed.
	Seed int64
	// Horizon bounds the schedule: no departure is generated at or
	// after it.
	Horizon time.Duration
	// MeanUp is the average time a machine serves between departures;
	// each actual up-phase is uniform in [0.5, 1.5) of it.
	MeanUp time.Duration
	// Downtime is how long each departure lasts.
	Downtime time.Duration
	// Crash makes departures silent machine crashes (discovered by
	// timeouts) instead of polite owner-return evictions.
	Crash bool
}

// scheduleChurn lays out every machine's departures and returns up
// front, as plain engine timers: the schedule is part of the
// experiment's definition, not of its execution, so parallel runs see
// the identical sequence.
func scheduleChurn(eng *sim.Engine, startds []*daemon.Startd, cfg ChurnConfig, seed int64) {
	if cfg.Seed != 0 {
		seed = cfg.Seed
	}
	rng := rand.New(rand.NewSource(seed))
	for _, sd := range startds {
		sd := sd
		t := time.Duration(0)
		for {
			up := time.Duration((0.5 + rng.Float64()) * float64(cfg.MeanUp))
			t += up
			if cfg.Horizon > 0 && t >= cfg.Horizon {
				break
			}
			if cfg.Crash {
				eng.After(t, sd.Crash)
				eng.After(t+cfg.Downtime, sd.Restart)
			} else {
				eng.After(t, sd.Evict)
				eng.After(t+cfg.Downtime, sd.OwnerLeft)
			}
			t += cfg.Downtime
		}
	}
}

// Pool is an assembled simulation.
type Pool struct {
	Engine     *sim.Engine
	Bus        *sim.Bus
	Matchmaker *daemon.Matchmaker
	// Schedd is the first (often only) submit point.
	Schedd *daemon.Schedd
	// Schedds lists every submit point.
	Schedds []*daemon.Schedd
	Startds []*daemon.Startd
}

// New builds the pool.
func New(cfg Config) *Pool {
	if cfg.MsgLatency == 0 {
		cfg.MsgLatency = 5 * time.Millisecond
	}
	eng := sim.New(cfg.Seed)
	eng.SetWorkers(cfg.Workers)
	bus := sim.NewBus(eng, cfg.MsgLatency)
	// The bus shares the daemons' tracer, so message fates interleave
	// with daemon events in one recording.
	bus.Obs = cfg.Params.Trace
	// With a parallel engine, each daemon's tracer is bound to its
	// shard so emissions made inside a wave are staged and replayed in
	// serial order at the barrier.  The serial engine skips the wrapper
	// — it would be a pure passthrough on the hot path.
	scoped := func(owner string) daemon.Params {
		if cfg.Workers <= 1 {
			return cfg.Params
		}
		pp := cfg.Params
		pp.Trace = eng.ShardTracer(owner, pp.Trace)
		return pp
	}
	p := &Pool{
		Engine:     eng,
		Bus:        bus,
		Matchmaker: daemon.NewMatchmaker(bus, scoped(daemon.MatchmakerName)),
	}
	n := cfg.Schedds
	if n <= 0 {
		n = 1
	}
	for i := 0; i < n; i++ {
		name := "schedd"
		if i > 0 {
			name = fmt.Sprintf("schedd%d", i)
		}
		p.Schedds = append(p.Schedds, daemon.NewSchedd(bus, scoped(name), name))
	}
	p.Schedd = p.Schedds[0]
	for _, mc := range cfg.Machines {
		p.Startds = append(p.Startds, daemon.NewStartd(bus, scoped(mc.Name), mc))
	}
	if cfg.Churn != nil && cfg.Churn.MeanUp > 0 {
		scheduleChurn(eng, p.Startds, *cfg.Churn, cfg.Seed)
	}
	return p
}

// AllTerminal reports whether every job at every schedd is final.
func (p *Pool) AllTerminal() bool {
	for _, s := range p.Schedds {
		if !s.AllTerminal() {
			return false
		}
	}
	return true
}

// SubmitStandard queues n Standard Universe jobs — re-linked binaries
// with transparent checkpointing — staging each executable on the
// submit-side file system.  The jobs' ads are copies of one
// precompiled template: each job owns its Ad, all of them share the
// immutable expressions, the compiled Requirements/Rank and the
// rendering, so Submit's Precompile and the journal's Ad.String() cost
// one parse per call, not one per job.
func (p *Pool) SubmitStandard(n int, build func(i int) *jvm.Program) []daemon.JobID {
	tmpl := daemon.NewStandardJobAd("user", 128)
	tmpl.Precompile()
	ids := make([]daemon.JobID, 0, n)
	for i := 0; i < n; i++ {
		exe := fmt.Sprintf("/home/user/job%d.exe", i)
		if err := p.Schedd.SubmitFS.WriteFile(exe, []byte("relinked binary")); err != nil {
			exe = ""
		}
		job := &daemon.Job{
			Owner:      "user",
			Universe:   "standard",
			Ad:         tmpl.Copy(),
			Program:    build(i),
			Executable: exe,
		}
		ids = append(ids, p.Schedd.Submit(job))
	}
	return ids
}

// SubmitJava queues n Java jobs whose programs come from the builder,
// staging each executable on the submit-side file system.  Ads are
// copies of one precompiled template, as in SubmitStandard.
func (p *Pool) SubmitJava(n int, build func(i int) *jvm.Program) []daemon.JobID {
	tmpl := daemon.NewJavaJobAd("user", 128)
	tmpl.Precompile()
	ids := make([]daemon.JobID, 0, n)
	for i := 0; i < n; i++ {
		exe := fmt.Sprintf("/home/user/job%d.class", i)
		if err := p.Schedd.SubmitFS.WriteFile(exe, []byte("class bytes")); err != nil {
			// The submit file system may be offline by design in an
			// experiment; stage nothing and let the shadow discover
			// the condition.
			exe = ""
		}
		job := &daemon.Job{
			Owner:      "user",
			Ad:         tmpl.Copy(),
			Program:    build(i),
			Executable: exe,
		}
		ids = append(ids, p.Schedd.Submit(job))
	}
	return ids
}

// Run drives the simulation until every job is terminal or the
// virtual time limit elapses, and returns the elapsed virtual time.
func (p *Pool) Run(limit time.Duration) time.Duration {
	start := p.Engine.Now()
	deadline := start.Add(limit)
	for p.Engine.Now() < deadline && !p.AllTerminal() {
		step := time.Minute
		if remaining := deadline.Sub(p.Engine.Now()); remaining < step {
			step = remaining
		}
		p.Engine.RunFor(step)
	}
	return p.Engine.Now().Sub(start)
}

// Metrics summarizes one run.
type Metrics struct {
	Jobs         int
	Completed    int
	Unexecutable int
	Held         int
	Unfinished   int

	// IncidentalLeaks counts completed jobs whose ground truth was
	// an environmental error — the postmortems the paper's users
	// were forced into (Section 2.3).
	IncidentalLeaks int

	Attempts      int
	FetchFailures int
	// LostContacts counts attempts whose execution site went silent
	// (machine crash discovered by the shadow's result timeout).
	LostContacts int
	// Evictions counts attempts ended by a machine owner's return.
	Evictions int
	// Preemptions counts claims transferred to a higher-Rank job.
	Preemptions int
	Requeues    int

	// Recoveries counts schedd restarts that replayed the journal.
	Recoveries int
	// LeaseExpiries counts claims released by the execute side after
	// the submit side stopped renewing.
	LeaseExpiries int

	// Goodput is CPU consumed by attempts that yielded a program
	// result; Badput is CPU burned by attempts that did not.
	Goodput time.Duration
	Badput  time.Duration

	// TurnaroundTotal sums queue residency of completed jobs.
	TurnaroundTotal time.Duration

	// MessagesSent/Lost report bus traffic.
	MessagesSent uint64
	MessagesLost uint64
}

// GoodputFraction returns Goodput/(Goodput+Badput), or 1 with no CPU
// consumed.
func (m Metrics) GoodputFraction() float64 {
	total := m.Goodput + m.Badput
	if total == 0 {
		return 1
	}
	return float64(m.Goodput) / float64(total)
}

// MeanTurnaround returns the average queue residency of completed
// jobs.
func (m Metrics) MeanTurnaround() time.Duration {
	if m.Completed == 0 {
		return 0
	}
	return m.TurnaroundTotal / time.Duration(m.Completed)
}

// Metrics collects the summary for the current state.
func (p *Pool) Metrics() Metrics {
	return collectMetrics(p.Bus, p.Schedds, p.Startds)
}

// collectMetrics builds the summary from any set of schedds and
// startds — one pool's, or a whole federation's.
func collectMetrics(bus *sim.Bus, schedds []*daemon.Schedd, startds []*daemon.Startd) Metrics {
	var m Metrics
	m.MessagesSent = bus.Sent()
	m.MessagesLost = bus.Lost()
	for _, s := range schedds {
		m.Requeues += s.Requeues
		m.Recoveries += s.Recoveries
		for i := range s.Reports {
			if s.Reports[i].IncidentalLeak {
				m.IncidentalLeaks++
			}
		}
		for _, j := range s.Jobs() {
			m.addJob(j)
		}
	}
	for _, sd := range startds {
		m.LeaseExpiries += sd.LeasesExpired
		m.Preemptions += sd.Preemptions
	}
	return m
}

// addJob folds one job and its attempts into the summary.  A monitor
// runs this over the whole queue once per pump, so it reads attempts
// in place and sorts a result by scope without building its error.
func (m *Metrics) addJob(j *daemon.Job) {
	m.Jobs++
	switch j.State {
	case daemon.JobCompleted:
		m.Completed++
		m.TurnaroundTotal += j.Finished.Sub(j.Submitted)
	case daemon.JobUnexecutable:
		m.Unexecutable++
	case daemon.JobHeld:
		m.Held++
	default:
		m.Unfinished++
	}
	for i := range j.Attempts {
		att := &j.Attempts[i]
		m.Attempts++
		if att.FetchError != nil {
			m.FetchFailures++
			continue
		}
		if att.LostContact != nil {
			m.LostContacts++
			continue
		}
		if att.Evicted {
			// The owner's return ends the attempt; whether the
			// occupancy was wasted depends on the universe
			// (checkpointing preserves it), so it is reported
			// separately rather than as badput.
			m.Evictions++
			continue
		}
		if s := att.True.ErrScope(); s == scope.ScopeNone || s == scope.ScopeProgram {
			m.Goodput += att.CPU
		} else {
			// A failed attempt wastes the machine for its whole
			// occupancy — claim, transfer, startup — not just
			// the program CPU it burned (Section 5: "continuous
			// waste of CPU and network capacity").
			m.Badput += att.End.Sub(att.Start)
		}
	}
}

// String renders the metrics as a one-line experiment row.
func (m Metrics) String() string {
	return fmt.Sprintf(
		"jobs=%d done=%d unexec=%d held=%d unfinished=%d leaks=%d attempts=%d fetchfail=%d requeues=%d goodput=%s badput=%s gf=%.2f",
		m.Jobs, m.Completed, m.Unexecutable, m.Held, m.Unfinished,
		m.IncidentalLeaks, m.Attempts, m.FetchFailures, m.Requeues,
		m.Goodput, m.Badput, m.GoodputFraction())
}
