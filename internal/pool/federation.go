package pool

import (
	"fmt"
	"time"

	"github.com/errscope/grid/internal/daemon"
	"github.com/errscope/grid/internal/sim"
)

// FedPoolConfig describes one member pool of a federation: its own
// matchmaker, machines, submit points, and the ordered list of peer
// pools its starved jobs may flock to.
type FedPoolConfig struct {
	// Name prefixes every actor of the pool ("p1" -> "p1-schedd",
	// "p1-c000", "mm-p1", "flockd-p1"); the empty name keeps the
	// standalone names ("schedd", "c000", "matchmaker").  Names must
	// not contain ':', which the engine reserves for shard-keyed child
	// actors.
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

// msgLatency is the one-way bus latency of every pool and federation.
const msgLatency = 5 * time.Millisecond

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
	// Workers is the engine's intra-instant concurrency (see Config).
	Workers int
	// Churn, if non-nil, applies deterministic machine churn to every
	// member pool's machines from one seeded schedule (see
	// ChurnConfig): federated pools built of idle workstations churn
	// exactly like single ones.
	Churn *ChurnConfig
}

// Federation is an assembled multi-pool simulation.
type Federation struct {
	Engine *sim.Engine
	Bus    *sim.Bus
	Pools  []*Pool
	// all holds every member's schedds and startds, so that the
	// federation's run loop, terminal check and metrics are Pool's.
	all Pool
}

// MatchmakerFor returns the actor name of a pool's negotiator; the
// unnamed pool's is the standalone "matchmaker".
func MatchmakerFor(pool string) string {
	if pool == "" {
		return daemon.MatchmakerName
	}
	return "mm-" + pool
}

// FlockdFor returns the actor name of a pool's flock coordinator.
func FlockdFor(pool string) string { return "flockd-" + pool }

// memberName is the actor name of a member's daemon whose standalone
// name is base: base itself in the unnamed pool, "<pool>-<base>" in a
// named one.
func memberName(pool, base string) string {
	if pool == "" {
		return base
	}
	return pool + "-" + base
}

// NewFederation builds the federation, and through New every
// standalone pool.  All pools share the engine and the bus; what
// separates them is naming: each pool's daemons point at their own
// matchmaker, and only the flocking protocol crosses the boundary.
// Names are part of the trace contract — they appear in every event,
// digest and scenario site — so the unnamed member keeps exactly the
// standalone names.
func NewFederation(cfg FederationConfig) *Federation {
	eng := sim.New(cfg.Seed)
	eng.SetWorkers(cfg.Workers)
	bus := sim.NewBus(eng, msgLatency)
	// The bus shares the daemons' tracer, so message fates interleave
	// with daemon events in one recording.
	bus.Obs = cfg.Params.Trace
	// With a parallel engine, each daemon's tracer is bound to its
	// shard so emissions made inside a wave are staged and replayed in
	// serial order at the barrier.  The serial engine skips the wrapper
	// — it would be a pure passthrough on the hot path.
	scoped := func(p daemon.Params, owner string) daemon.Params {
		if cfg.Workers > 1 {
			p.Trace = eng.ShardTracer(owner, p.Trace)
		}
		return p
	}

	f := &Federation{Engine: eng, Bus: bus, all: Pool{Engine: eng, Bus: bus}}
	// Matchmakers first: flock coordinators ping them from the moment
	// they are constructed.
	for _, pc := range cfg.Pools {
		mp := cfg.Params
		mp.Matchmaker = MatchmakerFor(pc.Name)
		f.Pools = append(f.Pools, &Pool{Name: pc.Name, Engine: eng, Bus: bus,
			Matchmaker: daemon.NewMatchmaker(bus, scoped(mp, mp.Matchmaker))})
	}
	for i, pc := range cfg.Pools {
		p := f.Pools[i]
		pp := cfg.Params
		pp.Matchmaker = MatchmakerFor(pc.Name)
		if cfg.FlockAfter > 0 && len(pc.FlockTo) > 0 {
			pp.Flockd = FlockdFor(pc.Name)
			pp.FlockAfter = cfg.FlockAfter
			for _, peer := range pc.FlockTo {
				pp.FlockTo = append(pp.FlockTo, MatchmakerFor(peer))
			}
			p.Flockd = daemon.NewFlockCoordinator(bus, scoped(pp, pp.Flockd))
		}
		for s := 0; s < max(pc.Schedds, 1); s++ {
			name := "schedd"
			if s > 0 {
				name = fmt.Sprintf("schedd%d", s)
			}
			name = memberName(pc.Name, name)
			p.Schedds = append(p.Schedds, daemon.NewSchedd(bus, scoped(pp, name), name))
		}
		p.Schedd = p.Schedds[0]
		for _, mc := range pc.Machines {
			mc.Name = memberName(pc.Name, mc.Name)
			p.Startds = append(p.Startds, daemon.NewStartd(bus, scoped(pp, mc.Name), mc))
		}
		f.all.Schedds = append(f.all.Schedds, p.Schedds...)
		f.all.Startds = append(f.all.Startds, p.Startds...)
	}
	if cfg.Churn != nil && cfg.Churn.MeanUp > 0 {
		scheduleChurn(eng, f.all.Startds, *cfg.Churn, cfg.Seed)
	}
	return f
}

// Pool returns the member with the given name, or nil.
func (f *Federation) Pool(name string) *Pool {
	for _, p := range f.Pools {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// AllTerminal reports whether every job at every schedd of every pool
// is final.
func (f *Federation) AllTerminal() bool { return f.all.AllTerminal() }

// Run drives the federation until every job everywhere is terminal or
// the virtual time limit elapses, and returns the elapsed virtual
// time.
func (f *Federation) Run(limit time.Duration) time.Duration { return f.all.Run(limit) }

// Metrics aggregates the run summary across every pool's schedds and
// machines.
func (f *Federation) Metrics() Metrics { return f.all.Metrics() }

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
