package sim

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/errscope/grid/internal/obs"
)

// Message is one unit of communication between actors on the Bus.
type Message struct {
	From string
	To   string
	Kind string
	Body any
}

// String renders the message for traces.
func (m Message) String() string {
	return fmt.Sprintf("%s->%s %s", m.From, m.To, m.Kind)
}

// Actor receives messages delivered by the bus.
type Actor interface {
	Receive(m Message)
}

// ActorFunc adapts a function to the Actor interface.
type ActorFunc func(m Message)

// Receive calls f(m).
func (f ActorFunc) Receive(m Message) { f(m) }

// Fault is the in-transit fate a FaultFunc assigns to one message:
// silently lost, delayed beyond the modeled latency, delivered more
// than once, or any combination.  The zero value is normal delivery.
type Fault struct {
	// Drop loses the message.  Losing a message models a network
	// fault; the sender learns nothing, exactly as on a real network —
	// detection is the business of higher-layer timeouts (Section 5:
	// the scope of a communication failure is indeterminate until time
	// passes).
	Drop bool
	// Delay is added to the modeled latency.
	Delay time.Duration
	// Duplicates is how many extra copies arrive, each after the
	// same total latency; receivers must be idempotent, as over a
	// real network that retransmitted.
	Duplicates int
	// Mutate, if non-nil, replaces the message body in transit —
	// modeling truncation or corruption on the wire.  It runs
	// synchronously at send time (determinism) and must not retain or
	// modify the original body, only return a replacement.
	Mutate func(body any) any
}

// FaultFunc decides the in-transit fate of each message.  It is the
// bus's one fault-injection point: deterministic given the same message
// sequence, since the bus consults it synchronously at send time.
type FaultFunc func(m Message) Fault

// Bus delivers messages between named actors through the engine's
// event queue after a constant latency, applying the fault model.
type Bus struct {
	eng     *Engine
	actors  map[string]Actor
	latency time.Duration
	fault   FaultFunc
	// Trace, if non-nil, observes every message at send time along
	// with its fate.
	Trace func(m Message, delivered bool)
	// Obs, if non-nil, receives structured message events for bodies
	// that implement obs.JobTagged (periodic ads and internal notices
	// stay out of traces) plus bus traffic counters.
	Obs obs.Tracer
	// sent and duplicated are touched only by sendNow, which runs
	// single-threaded (serially, or at the wave barrier); lost is also
	// incremented by deliveries executing concurrently inside a wave,
	// so it is atomic.
	sent       uint64
	lost       atomic.Uint64
	duplicated uint64

	// freeDeliveries recycles in-flight delivery records, so a
	// steady-state message costs no closure or capture allocation —
	// the bus-side extension of the engine's event pool, and capped
	// like it: every record in flight rides one event.
	freeDeliveries []*delivery
	// lastTo and lastShard remember the destination shard sendNow
	// resolved last: a daemon's burst goes to one name.
	lastTo    string
	lastShard int32
}

// delivery is one scheduled message arrival.  The run field is bound
// to deliver exactly once, when the record is first allocated, so
// recycled deliveries schedule with zero new closures.
type delivery struct {
	bus *Bus
	msg Message
	run func()
}

func (b *Bus) getDelivery(m Message) *delivery {
	if n := len(b.freeDeliveries); n > 0 {
		d := b.freeDeliveries[n-1]
		b.freeDeliveries[n-1] = nil
		b.freeDeliveries = b.freeDeliveries[:n-1]
		d.msg = m
		return d
	}
	d := &delivery{bus: b, msg: m}
	d.run = d.deliver
	return d
}

// putDelivery pools a retired record; past the cap a burst's overflow
// goes back to the garbage collector.
func (b *Bus) putDelivery(d *delivery) {
	if len(b.freeDeliveries) < maxFreeEvents {
		b.freeDeliveries = append(b.freeDeliveries, d)
	}
}

// deliver hands the message to its target.  The record is recycled
// before the actor runs, mirroring the engine's event recycling, so
// sends made from inside Receive can reuse it immediately.
func (d *delivery) deliver() {
	b, m := d.bus, d.msg
	if ctx := b.eng.activeCtxByOwner(m.To); ctx != nil {
		d.deliverWave(ctx, m)
		return
	}
	d.msg = Message{} // drop the body reference while pooled
	b.putDelivery(d)
	a, ok := b.actors[m.To]
	if !ok {
		b.lose(m)
		return
	}
	if b.Trace != nil {
		b.Trace(m, true)
	}
	a.Receive(m)
}

// deliverWave is deliver while a parallel wave is running: the record
// retires through the shard's staging list (the bus free list is
// single-threaded state), the actor lookup consults the shard's
// registry overlay before the frozen base map, and trace and obs
// emissions are staged so the barrier replays them in serial order.
func (d *delivery) deliverWave(ctx *shardCtx, m Message) {
	b := d.bus
	// Retire the record into the shard's staging list (the bus free
	// list itself is single-threaded state); the barrier repools it.
	d.msg = Message{}
	ctx.freeDel = append(ctx.freeDel, d)
	a, ok := b.actors[m.To]
	if ctx.overlay != nil {
		if ov, hit := ctx.overlay[m.To]; hit {
			a, ok = ov, ov != nil
		}
	}
	if !ok {
		b.lost.Add(1)
		if b.Trace != nil {
			ctx.stageBusTrace(b, m, false)
		}
		if b.Obs != nil {
			ctx.stageCount(b.Obs, "bus.lost", 1)
		}
		b.observeWave(ctx, m, obs.KindMsgLost)
		return
	}
	if b.Trace != nil {
		ctx.stageBusTrace(b, m, true)
	}
	a.Receive(m)
}

// NewBus creates a bus on the engine with constant latency.
func NewBus(eng *Engine, latency time.Duration) *Bus {
	return &Bus{eng: eng, actors: make(map[string]Actor), latency: latency}
}

// SetFaultFunc installs a fault-injection model consulted for every
// message; nil restores faithful delivery.
func (b *Bus) SetFaultFunc(f FaultFunc) { b.fault = f }

// Register attaches an actor under a unique name.  Registering a
// duplicate name panics — silent replacement of a live daemon would
// make traces lie.  Register must not run during a parallel wave;
// daemons register through their scoped runtime, which stages the
// change.
func (b *Bus) Register(name string, a Actor) { b.registerNow(name, a) }

// registerNow is the single-threaded registration body, also the
// replay target for registrations staged during a wave.
func (b *Bus) registerNow(name string, a Actor) {
	if _, ok := b.actors[name]; ok {
		panic(fmt.Sprintf("sim: duplicate actor %q", name))
	}
	b.actors[name] = a
}

// Unregister detaches the named actor; in-flight messages to it are
// dropped at delivery time, like packets to a dead host.
func (b *Bus) Unregister(name string) { delete(b.actors, name) }

// Lookup returns the registered actor, if any.
func (b *Bus) Lookup(name string) (Actor, bool) {
	a, ok := b.actors[name]
	return a, ok
}

// Sent and Lost report message counters for metrics.
func (b *Bus) Sent() uint64 { return b.sent }

// Lost reports the number of messages the fault model dropped or that
// addressed a dead actor.
func (b *Bus) Lost() uint64 { return b.lost.Load() }

// Duplicated reports how many extra copies the fault model delivered.
func (b *Bus) Duplicated() uint64 { return b.duplicated }

// lose counts one serial-path message as lost: the counter, the trace,
// the obs counter and the structured event.
func (b *Bus) lose(m Message) {
	b.lost.Add(1)
	if b.Trace != nil {
		b.Trace(m, false)
	}
	if b.Obs != nil {
		b.Obs.Count("bus.lost", 1)
	}
	b.observe(m, obs.KindMsgLost)
}

// observe emits a structured event for each job a message concerns
// (see jobEvents).  The Enabled guard keeps the disabled path to one
// interface call with no event construction.
func (b *Bus) observe(m Message, fate string) {
	if b.Obs == nil || !b.Obs.Enabled() {
		return
	}
	b.jobEvents(m, fate, b.Obs.Emit)
}

// observeWave stages the structured events instead of emitting them,
// so the barrier replays them in serial order.
func (b *Bus) observeWave(ctx *shardCtx, m Message, fate string) {
	if b.Obs == nil || !b.Obs.Enabled() {
		return
	}
	b.jobEvents(m, fate, func(ev obs.Event) { ctx.stageEmit(b.Obs, ev) })
}

// jobEvents hands emit one message event per job the body concerns:
// one for an obs.JobTagged body, one per job in order for an
// obs.JobRun, and none for the rest (periodic ads, internal notices).
func (b *Bus) jobEvents(m Message, fate string, emit func(obs.Event)) {
	ev := obs.Event{T: int64(b.eng.Now()), Comp: "bus", Kind: fate, Code: m.Kind}
	switch body := m.Body.(type) {
	case obs.JobTagged:
		ev.Job, ev.Detail = body.TracedJob(), m.From+"->"+m.To
		emit(ev)
	case obs.JobRun:
		ev.Detail = m.From + "->" + m.To
		for i := 0; i < body.TracedJobs(); i++ {
			ev.Job = body.TracedJobAt(i)
			emit(ev)
		}
	}
}

// Send queues a message for delivery.  Delivery occurs after the
// modeled latency; a dropped message or an unknown destination is
// counted as lost and the sender is not informed.
//
// During a parallel wave the send is staged on the sender's shard and
// the whole body — fault model, counters, trace — runs at the barrier
// in the exact position the serial engine would have run it, which
// keeps stateful fault injectors deterministic.
func (b *Bus) Send(from, to, kind string, body any) {
	m := Message{From: from, To: to, Kind: kind, Body: body}
	if ctx := b.eng.activeCtxByOwner(from); ctx != nil {
		ctx.stageSend(b, m)
		return
	}
	if b.eng.waveActive {
		panic(fmt.Sprintf("sim: Send from %q outside its shard during a parallel wave", from))
	}
	b.sendNow(m)
}

// sendNow is the single-threaded send body: the serial Send, and the
// replay target for sends staged during a wave.
func (b *Bus) sendNow(m Message) {
	b.sent++
	if b.Obs != nil {
		b.Obs.Count("bus.sent", 1)
	}
	var f Fault
	if b.fault != nil {
		f = b.fault(m)
	}
	if f.Drop {
		b.lose(m)
		return
	}
	if f.Mutate != nil {
		m.Body = f.Mutate(m.Body)
	}
	b.observe(m, obs.KindMsg)
	// Deliveries run on the destination's shard, so same-instant
	// deliveries to different daemons may execute concurrently.
	if m.To != b.lastTo || b.lastShard == 0 {
		b.lastTo, b.lastShard = m.To, b.eng.ShardID(ShardKey(m.To))
	}
	shard := b.lastShard
	d := b.latency + f.Delay
	if d < 0 {
		d = 0
	}
	b.eng.afterScoped(shard, Time(d), b.getDelivery(m).run)
	for i := 0; i < f.Duplicates; i++ {
		// Each copy needs its own record: a delivery recycles itself
		// the moment it runs.
		b.duplicated++
		b.eng.afterScoped(shard, Time(d), b.getDelivery(m).run)
	}
}

// Engine returns the engine the bus schedules on.
func (b *Bus) Engine() *Engine { return b.eng }

// The following delegates make *Bus satisfy the daemon package's
// Runtime interface, so the same daemon code can run on this
// simulated bus or on a live, wall-clock runtime.

// Now returns the current virtual time.
func (b *Bus) Now() Time { return b.eng.Now() }

// After schedules fn after d and returns a cancel function.
func (b *Bus) After(d time.Duration, fn func()) (cancel func()) {
	t := b.eng.After(d, fn)
	return func() { t.Cancel() }
}

// Every schedules fn at the period and returns a stop function.
func (b *Bus) Every(period time.Duration, fn func()) (stop func()) {
	return b.eng.Every(period, fn)
}
