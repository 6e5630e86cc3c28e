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

	"github.com/errscope/grid/internal/classad"
	"github.com/errscope/grid/internal/daemon"
	"github.com/errscope/grid/internal/jvm"
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
// phases drawn from a generator seeded with the pool seed — equal
// seeds give equal schedules, so churned runs replay byte-equal like
// everything else.
type ChurnConfig struct {
	// Horizon bounds the schedule: no departure is generated at or
	// after it.  It must be positive.
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

// scheduleChurn draws every machine's departures when the pool is
// built — machine by machine from one seeded generator, so the
// schedule is part of the experiment's definition, not of its
// execution, and parallel runs see the identical sequence — but
// enqueues only each machine's next transition, so the engine holds
// one churn event per machine instead of the whole horizon.  A
// transition enqueues its successor before it acts, so the successor
// precedes, in seq order, anything the transition schedules for the
// same instant: the order a schedule enqueued in full at build time
// would give.
func scheduleChurn(eng *sim.Engine, startds []*daemon.Startd, cfg ChurnConfig, seed int64) {
	if cfg.Horizon <= 0 {
		panic("pool: churn requires a positive Horizon")
	}
	rng := rand.New(rand.NewSource(seed))
	for _, sd := range startds {
		m := &churner{eng: eng, downtime: cfg.Downtime, leave: sd.Evict, back: sd.OwnerLeft}
		if cfg.Crash {
			m.leave, m.back = sd.Crash, sd.Restart
		}
		for t := time.Duration(0); ; t += cfg.Downtime {
			t += time.Duration((0.5 + rng.Float64()) * float64(cfg.MeanUp))
			if t >= cfg.Horizon {
				break
			}
			m.departures = append(m.departures, t)
		}
		m.next()
	}
}

// churner walks one machine through its drawn schedule.
type churner struct {
	eng      *sim.Engine
	downtime time.Duration
	// leave and back are the machine's departure and return:
	// Evict/OwnerLeft, or Crash/Restart in crash mode.
	leave, back func()
	departures  []time.Duration // those not yet enqueued, ascending
}

// next enqueues the machine's next departure, if any is left.
func (m *churner) next() {
	if len(m.departures) > 0 {
		m.eng.At(sim.Time(m.departures[0]), m.depart)
		m.departures = m.departures[1:]
	}
}

// depart takes the machine away for the downtime.
func (m *churner) depart() {
	m.eng.After(m.downtime, m.ret)
	m.leave()
}

// ret returns the machine and enqueues its next departure.
func (m *churner) ret() {
	m.next()
	m.back()
}

// Pool is one assembled pool: a standalone simulation built by New, or
// one member of a Federation.  Either way it is built by NewFederation;
// a standalone pool is a federation of one unnamed member.
type Pool struct {
	// Name is the member's name in a federation, empty for a standalone
	// pool.
	Name string
	// Engine and Bus are shared by every member of a federation.
	Engine     *sim.Engine
	Bus        *sim.Bus
	Matchmaker *daemon.Matchmaker
	// Flockd is the pool's flock coordinator, nil for a standalone pool
	// and for a member with no peers to flock to.
	Flockd *daemon.FlockCoordinator
	// Schedd is the first (often only) submit point.
	Schedd *daemon.Schedd
	// Schedds lists every submit point.
	Schedds []*daemon.Schedd
	Startds []*daemon.Startd
}

// New builds a standalone pool: a federation of one unnamed member,
// whose daemons keep the standalone names ("matchmaker", "schedd",
// "schedd1", ..., and the machines' own names).
func New(cfg Config) *Pool {
	return NewFederation(FederationConfig{
		Seed:    cfg.Seed,
		Params:  cfg.Params,
		Pools:   []FedPoolConfig{{Machines: cfg.Machines, Schedds: cfg.Schedds}},
		Workers: cfg.Workers,
		Churn:   cfg.Churn,
	}).Pools[0]
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
// with transparent checkpointing — at the first schedd, staging each
// executable on its submit-side file system.
func (p *Pool) SubmitStandard(n int, build func(i int) *jvm.Program) []daemon.JobID {
	return p.submit(n, "standard", daemon.NewStandardJobAd("user", 128),
		"/home/user/job%d.exe", "relinked binary", build)
}

// SubmitJava queues n Java jobs whose programs come from the builder
// at the first schedd, staging each executable on its submit-side file
// system.
func (p *Pool) SubmitJava(n int, build func(i int) *jvm.Program) []daemon.JobID {
	return p.submit(n, "", daemon.NewJavaJobAd("user", 128),
		"/home/user/job%d.class", "class bytes", build)
}

// submit queues n jobs of one universe (empty for Java, the default)
// at the first schedd.  The jobs' ads are copies of one precompiled
// template: each job owns its Ad, all of them share the immutable
// expressions and the rendering, so Submit's Precompile and the
// journal's Ad.String() cost one parse per call, not one per job.
func (p *Pool) submit(n int, universe string, tmpl *classad.Ad, exeFormat, contents string,
	build func(i int) *jvm.Program) []daemon.JobID {
	tmpl.Precompile()
	ids := make([]daemon.JobID, 0, n)
	for i := 0; i < n; i++ {
		exe := fmt.Sprintf(exeFormat, i)
		if err := p.Schedd.SubmitFS.WriteFile(exe, []byte(contents)); err != nil {
			// The submit file system may be offline by design in an
			// experiment; stage nothing and let the shadow discover
			// the condition.
			exe = ""
		}
		job := &daemon.Job{
			Owner:      "user",
			Universe:   universe,
			Ad:         tmpl.Copy(),
			Program:    build(i),
			Executable: exe,
		}
		ids = append(ids, p.Schedd.Submit(job))
	}
	return ids
}

// Run drives the simulation until every job of this pool is terminal
// or the virtual time limit elapses, and returns the elapsed virtual
// time.  A federation member's Run drives the whole shared engine.
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
	// Tally is the schedds' summary of their jobs: states, attempts,
	// goodput and badput, turnaround, incidental leaks.
	daemon.Tally

	// Preemptions counts claims transferred to a higher-Rank job.
	Preemptions int
	Requeues    int

	// Recoveries counts schedd restarts that replayed the journal.
	Recoveries int
	// LeaseExpiries counts claims released by the execute side after
	// the submit side stopped renewing.
	LeaseExpiries int

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

// Metrics collects the summary for the current state: each schedd's
// retired tallies plus a fold of its live queue, so a summary costs
// what is still queued.  The bus counters (MessagesSent,
// MessagesLost) are the bus's: for a federation member they count the
// whole federation's traffic, since every member shares one bus.
func (p *Pool) Metrics() Metrics {
	var m Metrics
	m.MessagesSent = p.Bus.Sent()
	m.MessagesLost = p.Bus.Lost()
	for _, s := range p.Schedds {
		m.Requeues += s.Requeues
		m.Recoveries += s.Recoveries
		m.Merge(s.Tally())
	}
	for _, sd := range p.Startds {
		m.LeaseExpiries += sd.LeasesExpired
		m.Preemptions += sd.Preemptions
	}
	return m
}

// String renders the metrics as a one-line experiment row.
func (m Metrics) String() string {
	return fmt.Sprintf(
		"jobs=%d done=%d unexec=%d held=%d unfinished=%d leaks=%d attempts=%d fetchfail=%d requeues=%d goodput=%s badput=%s gf=%.2f",
		m.Jobs, m.Completed, m.Unexecutable, m.Held, m.Unfinished,
		m.IncidentalLeaks, m.Attempts, m.FetchFailures, m.Requeues,
		m.Goodput, m.Badput, m.GoodputFraction())
}
