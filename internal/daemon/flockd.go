package daemon

import (
	"github.com/errscope/grid/internal/obs"
	"github.com/errscope/grid/internal/sim"
)

// FlockCoordinator is a pool's flocking daemon: it tracks which peer
// negotiators are alive by pinging them every AdInterval, and answers
// a starved schedd's query with the first live peer at or past the
// requested flocking level.  Liveness is decided by time, not by
// messages (Section 5): a negotiator that has not answered a ping for
// three intervals is presumed dead and skipped, so a grant never
// points a job at a pool that cannot negotiate for it.
type FlockCoordinator struct {
	bus    Runtime
	params Params
	name   string
	tr     obs.Tracer

	// peers is the configured flocking order (Params.FlockTo).
	peers []string
	// lastPong is the instant each peer last answered a ping; a peer
	// absent from the map has never answered.
	lastPong map[string]sim.Time
	seq      int64

	// Metrics.
	PingsSent int
	Grants    int
	Denials   int
}

// NewFlockCoordinator creates and registers a pool's flock
// coordinator and starts its peer liveness probes.
func NewFlockCoordinator(bus Runtime, params Params) *FlockCoordinator {
	name := params.Flockd
	bus = affinity(bus, name)
	f := &FlockCoordinator{
		bus:      bus,
		params:   params,
		name:     name,
		tr:       params.tracer(),
		peers:    params.FlockTo,
		lastPong: make(map[string]sim.Time),
	}
	bus.Register(name, f)
	bus.Every(params.AdInterval, f.ping)
	// Probe immediately: Every's first firing is one interval out,
	// and a grant decision before the first pong would wrongly read
	// every peer as dead.
	f.ping()
	return f
}

// Name returns the coordinator's actor name.
func (f *FlockCoordinator) Name() string { return f.name }

// Receive implements sim.Actor.
func (f *FlockCoordinator) Receive(msg sim.Message) {
	switch body := msg.Body.(type) {
	case flockPongMsg:
		f.lastPong[body.From] = f.bus.Now()
	case flockQueryMsg:
		f.handleQuery(body)
	}
}

// ping probes every configured peer negotiator.
func (f *FlockCoordinator) ping() {
	f.seq++
	for _, p := range f.peers {
		f.PingsSent++
		f.bus.Send(f.name, p, kindFlockPing, flockPingMsg{From: f.name, Seq: f.seq})
	}
}

// alive reports whether the peer has answered a ping recently enough
// to be trusted with a job.
func (f *FlockCoordinator) alive(peer string) bool {
	t, ok := f.lastPong[peer]
	if !ok {
		return false
	}
	return f.bus.Now().Sub(t) <= 3*f.params.AdInterval
}

// handleQuery answers a starved schedd: grant the first live peer at
// or past the requested level, or deny when the rest of the order is
// dead or exhausted.  The decision ships as the canonical flock-codec
// line, the form that crosses pool boundaries.
func (f *FlockCoordinator) handleQuery(q flockQueryMsg) {
	level := q.Level
	if level < 1 {
		level = 1
	}
	for idx := level - 1; idx < len(f.peers); idx++ {
		if peer := f.peers[idx]; f.alive(peer) {
			f.Grants++
			f.tr.Count("flockd.grants", 1)
			f.reply(q, FlockMsg{Op: FlockGrant, Job: q.Job,
				Level: idx + 1, Negotiator: peer})
			return
		}
	}
	f.Denials++
	f.tr.Count("flockd.denials", 1)
	f.reply(q, FlockMsg{Op: FlockDeny, Job: q.Job,
		Reason: "no live peer pool at or past the requested level"})
}

func (f *FlockCoordinator) reply(q flockQueryMsg, m FlockMsg) {
	f.bus.Send(f.name, q.Schedd, kindFlockReply,
		flockReplyMsg{Job: q.Job, Payload: EncodeFlockMsg(m)})
}
