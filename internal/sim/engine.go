// Package sim provides a deterministic discrete-event simulation
// engine: a virtual clock, an event queue with stable ordering, a
// seeded random source, and a message bus with a configurable latency
// and loss model.
//
// The Condor kernel daemons of this repository are actors driven by
// this engine, which makes every pool experiment reproducible: the
// same seed yields the identical event trace.  Determinism is itself
// a fault-tolerance tool — Section 5 of the paper observes that the
// significance of an error may depend on time, and only a controlled
// clock lets tests assert those time-dependent behaviours exactly.
package sim

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"
)

// Time is a virtual instant, measured in nanoseconds from the start
// of the simulation.
type Time int64

// String renders the time as a duration from simulation start.
func (t Time) String() string { return time.Duration(t).String() }

// Add returns the time d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration between two times.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// event is one scheduled callback.  Events are pooled on a free list:
// once fired or cancelled, the struct is recycled for a later
// schedule, so a steady-state simulation allocates no event memory.
// gen distinguishes incarnations so a stale Timer cannot cancel the
// recycled event.
//
// Queued events are either heads — entries of the heap — or chained:
// linked, in seq order, behind a head of the same instant.  The links
// are intrusive, so a chain costs no allocation, an instant with one
// event is a bare heap entry, and the struct stays in the 64-byte size
// class.
type event struct {
	at    Time
	seq   uint64 // insertion order; breaks ties deterministically
	fn    func()
	index int    // heap index of a head; chainedIndex, stagedIndex, or -1 when not queued
	gen   uint64 // incarnation counter for Timer validity
	// next is the successor in the chain, on heads and chained events
	// alike; tail is the chain's last event and is kept on heads only
	// (a head with no chain is its own tail).
	next, tail *event

	// shard is the affinity key of the callback: events of different
	// shards may execute concurrently within one virtual instant.
	// Shard globalShard (0) is exclusive — it runs alone, with a
	// barrier on either side.
	shard int32
	// skip marks a same-instant event cancelled after it was popped
	// into the current wave; done marks it executed.  Both are
	// meaningful only inside one wave and reset on recycle.
	skip bool
	done bool
	// cancelStaged marks a cancel already staged against the event in
	// the current wave, so a second Cancel reports false like the
	// serial engine's double cancel.
	cancelStaged bool
	// dead marks a chained event that was cancelled.  A chain has no
	// back links, so the struct stays linked — its Timer already
	// invalid, its seq still ordering the chain — until promotion
	// walks past it and pools it.
	dead bool
}

const (
	// stagedIndex marks an event created during a parallel wave and not
	// yet queued; the barrier assigns its seq and queues it in
	// deterministic order.
	stagedIndex = -2
	// chainedIndex marks an event linked behind a head.
	chainedIndex = -3
)

// eventHeap is a 4-ary min-heap of heads ordered by (at, seq).  It is
// monomorphic — no container/heap interface dispatch — because Step
// and At dominate the engine's CPU profile.  The arity and the
// internal layout are free to differ from container/heap's binary
// heap without affecting any trace: (at, seq) keys are unique, so the
// sequence of popped minimums is the same for every valid heap.
type eventHeap []*event

// heapArity is the node width: wider nodes mean fewer levels, so pops
// touch fewer cache lines on the large queues a big pool builds.
const heapArity = 4

func (h eventHeap) less(i, j int) bool {
	a, b := h[i], h[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h eventHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h eventHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / heapArity
		if !h.less(i, p) {
			break
		}
		h.swap(i, p)
		i = p
	}
}

// down sifts i toward the leaves within h[:n] and reports whether it
// moved.
func (h eventHeap) down(i, n int) bool {
	i0 := i
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + heapArity
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if h.less(c, min) {
				min = c
			}
		}
		if !h.less(min, i) {
			break
		}
		h.swap(i, min)
		i = min
	}
	return i > i0
}

func (h *eventHeap) push(e *event) {
	q := append(*h, e)
	e.index = len(q) - 1
	q.up(e.index)
	*h = q
}

// remove deletes the head at heap index i.
func (h *eventHeap) remove(i int) {
	q := *h
	n := len(q) - 1
	if i != n {
		q.swap(i, n)
		if !q.down(i, n) {
			q.up(i)
		}
	}
	q[n] = nil
	*h = q[:n]
}

// push queues ev.  An event for the instant of the head pushed to
// last, with a seq past that head's tail, is linked behind it — O(1),
// and the common case by far: a daemon that sends n messages from one
// callback schedules n deliveries for one instant.  Anything else
// enters the heap as a new head, so an instant may have several heads
// (another instant was scheduled in between; older seqs re-entered
// after a parallel Stop).  That is why coalescing is never a
// correctness matter: every chain ascends in seq and popMin always
// takes the least head, so pops are a k-way merge in global (at, seq)
// order whichever way the events were grouped.
func (e *Engine) push(ev *event) {
	e.live++
	if h := e.last; h != nil && h.at == ev.at && h.tail.seq < ev.seq {
		h.tail.next = ev
		h.tail = ev
		ev.index = chainedIndex
		return
	}
	ev.tail = ev
	e.events.push(ev)
	e.last = ev
}

// popMin removes and returns the earliest event.
func (e *Engine) popMin() *event {
	h := e.events[0]
	e.dropHead(h)
	return h
}

// dropHead takes head h out of the queue.  Its first live successor is
// promoted into h's heap slot — its key is larger than h's, so one
// down restores the heap, and at the root that down moves nothing
// while the instant has a single head.  Dead successors on the way
// are pooled; with no live successor the slot is removed.
func (e *Engine) dropHead(h *event) {
	s := h.next
	for s != nil && s.dead {
		dead := s
		s, dead.next = s.next, nil
		e.pool(dead)
	}
	if s != nil {
		s.tail = h.tail
		s.index = h.index
		e.events[s.index] = s
		e.events.down(s.index, len(e.events))
	} else {
		e.events.remove(h.index)
	}
	if e.last == h {
		e.last = s
	}
	h.index, h.next, h.tail = -1, nil, nil
	e.live--
}

// cancelQueued cancels a live event and reports whether it was queued.
// A head leaves the queue at once; a chained event is only marked (see
// event.dead), its Timer invalidated here and now.
func (e *Engine) cancelQueued(ev *event) bool {
	switch {
	case ev.index >= 0:
		e.dropHead(ev)
		e.recycle(ev)
	case ev.index == chainedIndex:
		ev.dead = true
		ev.fn = nil
		ev.gen++
		e.live--
	default:
		return false
	}
	return true
}

// Engine is a discrete-event simulator.  It is not safe for
// concurrent use: a simulation is a single logical thread of control,
// and all concurrency in the simulated system is expressed as
// interleaved events.
type Engine struct {
	now    Time
	events eventHeap // the heads; events[0] is the earliest live event
	// last is the head most recently pushed to — push's one-entry
	// cache — or nil; live counts queued events that are not dead.
	last *event
	live int
	seq  uint64
	rng  *rand.Rand
	seed int64
	// stopped is atomic because Stop may be called from a worker
	// goroutine during a parallel instant.
	stopped atomic.Bool
	// free is the event free list; fired and cancelled events are
	// recycled here instead of returning to the garbage collector.
	// Its length is capped at maxFreeEvents so a scheduling burst
	// cannot pin event memory for the rest of the run.
	free []*event
	// processed counts executed events, for tests and metrics.
	processed uint64

	// workers is the concurrency of one virtual instant; <= 1 keeps
	// the engine strictly serial.
	workers int
	// shardNames interns shard keys to dense ids; index 0 is the
	// exclusive global shard.
	shardNames []string
	shardIDs   map[string]int32
	shardRngs  []*rand.Rand
	// wave state (see parallel.go).
	waveActive bool
	ctxs       []*shardCtx
	waveBuf    []*event
	segCtxBuf  []*shardCtx
	fxBuf      []effect
	posBuf     []int
	// segs / segShards count parallel segments and the shard
	// executions they contained, for parallelism diagnostics.
	segs      uint64
	segShards uint64
}

// maxFreeEvents caps the event free list.  Beyond the cap, recycled
// events return to the garbage collector: the pool exists to make the
// steady state allocation-free, not to hold the high-water mark of a
// burst forever.  The cap accommodates a pool-scale fleet — one
// in-flight timer per simulated machine — at 64 bytes per struct
// (unsafe.Sizeof(event{}); a test pins it).
const maxFreeEvents = 65536

// New creates an engine whose random source is seeded with seed.
func New(seed int64) *Engine {
	e := &Engine{
		rng:        rand.New(rand.NewSource(seed)),
		seed:       seed,
		shardNames: []string{""},
		shardIDs:   map[string]int32{"": globalShard},
		shardRngs:  []*rand.Rand{nil},
		ctxs:       []*shardCtx{nil},
	}
	return e
}

// SetWorkers sets the number of workers that may execute same-instant
// events of different shards concurrently.  Values <= 1 keep the
// engine strictly serial; the default is serial.  Call before Run —
// switching modes between instants is safe, switching inside one is
// not.
func (e *Engine) SetWorkers(n int) { e.workers = n }

// Workers reports the configured instant concurrency (0 or 1 means
// serial).
func (e *Engine) Workers() int { return e.workers }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of events still scheduled.
func (e *Engine) Pending() int { return e.live }

// Timer is a handle to a scheduled event; Cancel prevents a pending
// event from firing.  The handle carries the event's incarnation so
// that it expires the moment its event fires or is cancelled —
// pooled event structs are reused for later schedules, and a stale
// handle must never touch its successor.
type Timer struct {
	eng *Engine
	ev  *event
	gen uint64
}

// Cancel removes the event if it has not yet fired.  It reports
// whether the event was still pending.  Cancel must not be called
// from inside a parallel instant — daemon code cancels through its
// scoped runtime, which routes to cancelFrom with the caller's shard.
func (t *Timer) Cancel() bool {
	if t == nil || t.ev == nil || t.gen != t.ev.gen {
		return false
	}
	return t.eng.cancelQueued(t.ev)
}

// cancelFrom is Cancel as issued by an event running on the given
// shard, safe during a parallel instant.  Outside a wave it is
// exactly Cancel.  Inside a wave:
//
//   - a future event still in the queue is cancel-staged; the barrier
//     removes it in deterministic order (queue state is frozen during
//     the wave);
//   - an event scheduled earlier in this wave and not yet inserted is
//     cancel-staged the same way — the barrier still consumes its seq
//     before removing it, exactly as the serial engine would;
//   - a same-instant event already popped into the wave succeeds only
//     from its own shard and only before it runs (a skip mark); from
//     any other shard the cancel deterministically reports false,
//     whether or not the target has run — cross-shard cancellation of
//     a same-instant event is inherently racy and this engine refuses
//     to let the race decide.
func (t *Timer) cancelFrom(shard int32) bool {
	if t == nil || t.ev == nil || t.gen != t.ev.gen {
		return false
	}
	e := t.eng
	if !e.waveActive {
		return t.Cancel()
	}
	ev := t.ev
	switch {
	case ev.index >= 0, ev.index == stagedIndex, ev.index == chainedIndex:
		if ev.cancelStaged {
			return false
		}
		ctx := e.activeCtx(shard)
		if ctx == nil {
			return false
		}
		ev.cancelStaged = true
		ctx.stageCancel(ev, t.gen)
		return true
	default: // popped into the current wave
		if ev.shard != shard || ev.done || ev.skip {
			return false
		}
		ev.skip = true
		return true
	}
}

// recycle returns a removed event to the free list under a new
// incarnation.  The free list is capped: a burst's overflow goes back
// to the garbage collector.
func (e *Engine) recycle(ev *event) {
	ev.fn = nil
	ev.gen++
	e.pool(ev)
}

// pool resets an event that has left the queue (its links are already
// nil) and puts it on the free list.
func (e *Engine) pool(ev *event) {
	ev.index = -1
	ev.skip = false
	ev.done = false
	ev.cancelStaged = false
	ev.dead = false
	if len(e.free) < maxFreeEvents {
		e.free = append(e.free, ev)
	}
}

// At schedules fn to run at virtual time at, returning a cancel
// handle by value — the handle, the event, and the schedule are all
// allocation-free in steady state.  Scheduling into the past panics:
// it would violate causality and silently reorder the trace.
func (e *Engine) At(at Time, fn func()) Timer {
	return e.atShard(globalShard, at, fn)
}

// atShard is At with an explicit shard affinity.  It must not run
// concurrently with a wave (callers inside a wave stage through
// afterScoped instead).
func (e *Engine) atShard(shard int32, at Time, fn func()) Timer {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.at = at
		ev.seq = e.seq
		ev.fn = fn
	} else {
		ev = &event{at: at, seq: e.seq, fn: fn}
	}
	ev.shard = shard
	e.seq++
	e.push(ev)
	return Timer{eng: e, ev: ev, gen: ev.gen}
}

// After schedules fn to run d from now.  Negative d means now.
func (e *Engine) After(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return e.At(e.now.Add(d), fn)
}

// Every schedules fn to run every period, starting one period from
// now, until the returned Timer chain is cancelled via the returned
// stop function or the engine stops.
func (e *Engine) Every(period time.Duration, fn func()) (stop func()) {
	if period <= 0 {
		panic("sim: Every requires a positive period")
	}
	stopped := false
	var current Timer
	// One closure serves every tick: re-arming passes the same func
	// value back to the scheduler, so a long-lived periodic timer
	// allocates nothing per period.
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		fn()
		if !stopped {
			current = e.After(period, tick)
		}
	}
	current = e.After(period, tick)
	return func() {
		stopped = true
		current.Cancel()
	}
}

// Step executes the next pending event, advancing the clock to its
// time.  It reports whether an event was executed.  A cancelled event
// is never a head, so every pop is a live event; the struct is
// recycled before the callback runs, letting callbacks that schedule
// reuse it immediately.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := e.popMin()
	e.now = ev.at
	fn := ev.fn
	e.recycle(ev)
	e.processed++
	fn()
	return true
}

// Run executes events until the queue is empty or Stop is called.
func (e *Engine) Run() {
	if e.workers > 1 {
		e.runParallel(maxTime, false)
		return
	}
	e.stopped.Store(false)
	for !e.stopped.Load() && e.Step() {
	}
}

// RunUntil executes events with time ≤ deadline, then sets the clock
// to the deadline (if it is later than the last event).
func (e *Engine) RunUntil(deadline Time) {
	if e.workers > 1 {
		e.runParallel(deadline, true)
		return
	}
	e.stopped.Store(false)
	for !e.stopped.Load() {
		if len(e.events) == 0 {
			break
		}
		next := e.peek()
		if next == nil {
			break
		}
		if next.at > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// RunFor advances the simulation d from the current time.
func (e *Engine) RunFor(d time.Duration) { e.RunUntil(e.now.Add(d)) }

// Stop halts Run/RunUntil after the current event completes.  During
// a parallel instant the stop takes effect at the next shard barrier:
// the running segment completes, its effects are merged, and the
// remaining same-instant events return to the heap unrun.
func (e *Engine) Stop() { e.stopped.Store(true) }

func (e *Engine) peek() *event {
	if len(e.events) == 0 {
		return nil
	}
	return e.events[0]
}
