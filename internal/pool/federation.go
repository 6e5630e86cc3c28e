package pool

import (
	"fmt"
	"time"

	"github.com/errscope/grid/internal/daemon"
	"github.com/errscope/grid/internal/jvm"
	"github.com/errscope/grid/internal/sim"
)

// FedPoolConfig describes one member pool of a federation: its own
// matchmaker, machines, submit points, and the ordered list of peer
// pools its starved jobs may flock to.
type FedPoolConfig struct {
	// Name prefixes every actor of the pool ("p1" -> "p1-schedd",
	// "p1-c000", "mm-p1", "flockd-p1").  Names must not contain ':',
	// which the engine reserves for shard-keyed child actors.
	Name string
	// Machines are the pool's execution machines; their names are
	// prefixed with the pool name at build time.
	Machines []daemon.MachineConfig
	// Schedds is the number of submit points (default 1).
	Schedds int
	// FlockTo lists peer pool names in flocking order.  Empty means
	// this pool's jobs never leave.
	FlockTo []string
}

// FederationConfig describes N pools federated over one simulation
// engine and one bus: cross-pool messages travel the same wire as
// local ones, and the serial and parallel engines produce byte-equal
// traces for the whole federation exactly as for one pool.
type FederationConfig struct {
	// Seed drives all randomness; equal seeds give equal traces.
	Seed int64
	// Params are the base kernel parameters; the federation overrides
	// the per-pool fields (Matchmaker, Flockd, FlockTo, FlockAfter).
	Params daemon.Params
	// Pools are the member pools, in build order.
	Pools []FedPoolConfig
	// FlockAfter is how long a job must starve locally before its
	// schedd asks the flock coordinator for a peer pool.  Zero
	// disables flocking everywhere.
	FlockAfter time.Duration
	// MsgLatency is the one-way bus latency (default 5ms).
	MsgLatency time.Duration
	// Workers is the engine's intra-instant concurrency (see Config).
	Workers int
	// Churn, if non-nil, applies deterministic machine churn to every
	// member pool's machines from one seeded schedule (see
	// ChurnConfig): federated pools built of idle workstations churn
	// exactly like single ones.
	Churn *ChurnConfig
}

// FedPool is one assembled member pool.
type FedPool struct {
	Name       string
	Matchmaker *daemon.Matchmaker
	// Flockd is the pool's flock coordinator, nil when the pool has no
	// peers to flock to.
	Flockd *daemon.FlockCoordinator
	// Schedd is the first (often only) submit point.
	Schedd  *daemon.Schedd
	Schedds []*daemon.Schedd
	Startds []*daemon.Startd
}

// Federation is an assembled multi-pool simulation.
type Federation struct {
	Engine *sim.Engine
	Bus    *sim.Bus
	Pools  []*FedPool
}

// MatchmakerFor returns the actor name of a pool's negotiator.
func MatchmakerFor(pool string) string { return "mm-" + pool }

// FlockdFor returns the actor name of a pool's flock coordinator.
func FlockdFor(pool string) string { return "flockd-" + pool }

// NewFederation builds the federation.  All pools share the engine
// and the bus; what separates them is naming: each pool's daemons
// point at their own matchmaker, and only the flocking protocol
// crosses the boundary.
func NewFederation(cfg FederationConfig) *Federation {
	if cfg.MsgLatency == 0 {
		cfg.MsgLatency = 5 * time.Millisecond
	}
	eng := sim.New(cfg.Seed)
	eng.SetWorkers(cfg.Workers)
	bus := sim.NewBus(eng, cfg.MsgLatency)
	bus.Obs = cfg.Params.Trace
	scoped := func(p daemon.Params, owner string) daemon.Params {
		if cfg.Workers > 1 {
			p.Trace = eng.ShardTracer(owner, p.Trace)
		}
		return p
	}

	fed := &Federation{Engine: eng, Bus: bus}
	// Matchmakers first: flock coordinators ping them from the moment
	// they are constructed.
	for _, pc := range cfg.Pools {
		fp := &FedPool{Name: pc.Name}
		mp := cfg.Params
		mp.Matchmaker = MatchmakerFor(pc.Name)
		fp.Matchmaker = daemon.NewMatchmaker(bus, scoped(mp, mp.Matchmaker))
		fed.Pools = append(fed.Pools, fp)
	}
	for i, pc := range cfg.Pools {
		fp := fed.Pools[i]
		pp := cfg.Params
		pp.Matchmaker = MatchmakerFor(pc.Name)
		if cfg.FlockAfter > 0 && len(pc.FlockTo) > 0 {
			pp.Flockd = FlockdFor(pc.Name)
			pp.FlockAfter = cfg.FlockAfter
			for _, peer := range pc.FlockTo {
				pp.FlockTo = append(pp.FlockTo, MatchmakerFor(peer))
			}
			fp.Flockd = daemon.NewFlockCoordinator(bus, scoped(pp, pp.Flockd))
		}
		n := pc.Schedds
		if n <= 0 {
			n = 1
		}
		for s := 0; s < n; s++ {
			name := pc.Name + "-schedd"
			if s > 0 {
				name = fmt.Sprintf("%s-schedd%d", pc.Name, s)
			}
			fp.Schedds = append(fp.Schedds, daemon.NewSchedd(bus, scoped(pp, name), name))
		}
		fp.Schedd = fp.Schedds[0]
		for _, mc := range pc.Machines {
			mc.Name = pc.Name + "-" + mc.Name
			fp.Startds = append(fp.Startds, daemon.NewStartd(bus, scoped(pp, mc.Name), mc))
		}
	}
	if cfg.Churn != nil && cfg.Churn.MeanUp > 0 {
		var all []*daemon.Startd
		for _, fp := range fed.Pools {
			all = append(all, fp.Startds...)
		}
		scheduleChurn(eng, all, *cfg.Churn, cfg.Seed)
	}
	return fed
}

// Pool returns the member with the given name, or nil.
func (f *Federation) Pool(name string) *FedPool {
	for _, p := range f.Pools {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// AllTerminal reports whether every job at every schedd of every pool
// is final.
func (f *Federation) AllTerminal() bool {
	for _, p := range f.Pools {
		for _, s := range p.Schedds {
			if !s.AllTerminal() {
				return false
			}
		}
	}
	return true
}

// SubmitJava queues n Java jobs at the pool's first schedd, staging
// each executable on its submit-side file system, exactly as
// Pool.SubmitJava does.
func (p *FedPool) SubmitJava(n int, build func(i int) *jvm.Program) []daemon.JobID {
	ids := make([]daemon.JobID, 0, n)
	for i := 0; i < n; i++ {
		exe := fmt.Sprintf("/home/user/job%d.class", i)
		if err := p.Schedd.SubmitFS.WriteFile(exe, []byte("class bytes")); err != nil {
			exe = ""
		}
		job := &daemon.Job{
			Owner:      "user",
			Ad:         daemon.NewJavaJobAd("user", 128),
			Program:    build(i),
			Executable: exe,
		}
		ids = append(ids, p.Schedd.Submit(job))
	}
	return ids
}

// Run drives the federation until every job everywhere is terminal or
// the virtual time limit elapses, and returns the elapsed virtual
// time.
func (f *Federation) Run(limit time.Duration) time.Duration {
	start := f.Engine.Now()
	deadline := start.Add(limit)
	for f.Engine.Now() < deadline && !f.AllTerminal() {
		step := time.Minute
		if remaining := deadline.Sub(f.Engine.Now()); remaining < step {
			step = remaining
		}
		f.Engine.RunFor(step)
	}
	return f.Engine.Now().Sub(start)
}

// FlockMetrics summarizes the federation's flocking traffic.
type FlockMetrics struct {
	// Schedd side: queries to coordinators, departures to peers,
	// returns home, corrupt replies dropped.
	Queries     int
	Departures  int
	Returns     int
	ReplyErrors int
	// Coordinator side.
	Grants    int
	Denials   int
	PingsSent int
	// ForeignMatches counts matches negotiators made for other pools'
	// jobs.
	ForeignMatches int
}

// FlockMetrics collects the flocking counters across every pool.
func (f *Federation) FlockMetrics() FlockMetrics {
	var m FlockMetrics
	for _, p := range f.Pools {
		for _, s := range p.Schedds {
			m.Queries += s.FlockQueries
			m.Departures += s.FlockDepartures
			m.Returns += s.FlockReturns
			m.ReplyErrors += s.FlockReplyErrors
		}
		if p.Flockd != nil {
			m.Grants += p.Flockd.Grants
			m.Denials += p.Flockd.Denials
			m.PingsSent += p.Flockd.PingsSent
		}
		m.ForeignMatches += p.Matchmaker.ForeignMatches
	}
	return m
}

// Metrics aggregates the run summary across every pool's schedds and
// machines, exactly as Pool.Metrics does for one pool.
func (f *Federation) Metrics() Metrics {
	var schedds []*daemon.Schedd
	var startds []*daemon.Startd
	for _, p := range f.Pools {
		schedds = append(schedds, p.Schedds...)
		startds = append(startds, p.Startds...)
	}
	return collectMetrics(f.Bus, schedds, startds)
}
