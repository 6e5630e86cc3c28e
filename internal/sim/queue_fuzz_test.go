package sim

import (
	"fmt"
	"sort"
	"testing"

	"github.com/errscope/grid/internal/obs"
)

// The event queue's differential oracle.  A byte string decodes into a
// small program — schedule (with a script the callback runs: more
// schedules, bursts, cancels, Stop), burst, cancel, Step, RunUntil — and
// the program drives an Engine and refQueue, a slice kept sorted by
// (at, seq), side by side.  After every top-level operation the two
// must agree on what fired and in which order, on every Cancel result,
// on Pending() and on Now().  The reference knows nothing of heads,
// chains, dead marks or the free list, so any way those could reorder,
// lose, resurrect or double-fire an event shows up as a disagreement.

// qnode is one decoded action.
type qnode struct {
	kind   byte
	id     int  // sched, burst: (first) timer id
	n      int  // burst: how many events
	delta  Time // sched, burst, rununtil
	spread bool // burst: event i at delta+i instead of all at delta
	rotate bool // burst: event i on shard (shard+i)%4
	shard  int  // sched, burst: shard slot 0..3; 0 is the global shard
	k      int  // cancel: target selector
	script []*qnode
}

const (
	qSched = iota
	qBurst
	qCancel
	qStop
	qStep
	qRunUntil
)

// queueDeltas includes 0 twice so that instants collide often.
var queueDeltas = []Time{0, 1, 2, 5, 1000, 0}

const (
	queueMaxIDs   = 12000
	queueMaxDepth = 2
)

type queueDecoder struct {
	data   []byte
	ids    int
	shards []int // per timer id: the shard slot it is scheduled on
}

func (d *queueDecoder) next() int {
	if len(d.data) == 0 {
		return 0
	}
	b := d.data[0]
	d.data = d.data[1:]
	return int(b)
}

// action decodes one action.  caller is the shard slot of the callback
// the action will run in, or -1 at top level.  A callback on a real
// shard may only schedule on its own shard — that is the engine's rule
// for afterScoped — so the decoded shard is overridden there.
func (d *queueDecoder) action(depth, caller int) *qnode {
	switch op := d.next() % 8; op {
	case 0, 1, 7:
		n := &qnode{kind: qSched, delta: queueDeltas[d.next()%len(queueDeltas)], shard: d.next() % 4}
		if caller > 0 {
			n.shard = caller
		}
		if d.ids >= queueMaxIDs {
			return nil
		}
		n.id = d.ids
		d.ids++
		d.shards = append(d.shards, n.shard)
		if depth < queueMaxDepth {
			for i := d.next() % 3; i > 0; i-- {
				if a := d.action(depth+1, n.shard); a != nil && a.kind != qStep && a.kind != qRunUntil {
					n.script = append(n.script, a)
				}
			}
		}
		return n
	case 2:
		return &qnode{kind: qCancel, k: d.next()<<8 | d.next()}
	case 3:
		return &qnode{kind: qStop}
	case 4:
		count, delta, flags := d.next()*40, queueDeltas[d.next()%len(queueDeltas)], d.next()
		count = min(count, queueMaxIDs-d.ids)
		n := &qnode{kind: qBurst, id: d.ids, n: count, delta: delta,
			spread: flags&1 != 0, rotate: flags&2 != 0 && caller <= 0, shard: flags >> 2 % 4}
		if caller > 0 {
			n.shard = caller
		}
		d.ids += count
		for i := 0; i < count; i++ {
			d.shards = append(d.shards, n.burstShard(i))
		}
		return n
	case 5:
		return &qnode{kind: qStep}
	default:
		return &qnode{kind: qRunUntil, delta: 2 * queueDeltas[d.next()%len(queueDeltas)]}
	}
}

// decodeQueueProgram returns the program and, per timer id it will
// create, the shard slot of that timer.
func decodeQueueProgram(data []byte) (prog []*qnode, shardOf []int) {
	d := &queueDecoder{data: data}
	for len(d.data) > 0 && len(prog) < 4096 {
		if a := d.action(0, -1); a != nil {
			prog = append(prog, a)
		}
	}
	return prog, d.shards
}

// burstShard is the shard slot of a burst's i-th event.
func (n *qnode) burstShard(i int) int {
	if n.rotate {
		return (n.shard + i) % 4
	}
	return n.shard
}

func (n *qnode) burstDelta(i int) Time {
	if n.spread {
		return n.delta + Time(i)
	}
	return n.delta
}

// cancelAllowed says whether a callback on shard slot caller may cancel
// timer k.  The serial engine allows everything.
// The parallel engine defines two cases differently on purpose — a
// cross-shard cancel, and an exclusive event cancelling an event of its
// own instant, report false (see Timer.cancelFrom) — and daemon code
// never issues either, so the program skips them on both sides.
func cancelAllowed(workers, caller, k int, shardOf []int, ats []Time, now Time) bool {
	switch {
	case caller < 0 || workers <= 1:
		return true
	case caller == 0:
		return ats[k] > now
	default:
		return shardOf[k] == caller
	}
}

type queueLogEntry struct {
	what string
	v    int64
}

// queueLog is the tracer the engine side reports through: routed
// through Engine.ShardTracer, entries made inside a parallel wave are
// staged and replayed in serial order, which is what makes "fire order"
// observable at workers > 1.
type queueLog struct{ entries []queueLogEntry }

func (l *queueLog) Enabled() bool         { return true }
func (l *queueLog) Emit(obs.Event)        {}
func (l *queueLog) Observe(string, int64) {}
func (l *queueLog) Count(name string, v int64) {
	l.entries = append(l.entries, queueLogEntry{name, v})
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// queueHarness runs a program on the engine.
type queueHarness struct {
	eng     *Engine
	workers int
	shards  [4]int32
	tr      [4]obs.Tracer
	log     queueLog
	timers  []Timer
	shardOf []int
	ats     []Time // per timer id, set when scheduled
}

func newQueueHarness(workers int, shardOf []int) *queueHarness {
	h := &queueHarness{eng: New(1), workers: workers, shardOf: shardOf,
		timers: make([]Timer, len(shardOf)), ats: make([]Time, len(shardOf))}
	h.eng.SetWorkers(workers)
	for i, name := range [4]string{"", "a", "b", "c"} {
		h.shards[i] = h.eng.ShardID(name)
		h.tr[i] = h.eng.ShardTracer(name, &h.log)
	}
	return h
}

func (h *queueHarness) schedule(id, shard int, delta Time, script []*qnode) {
	h.ats[id] = h.eng.Now() + delta
	h.timers[id] = h.eng.afterScoped(h.shards[shard], delta, func() {
		h.tr[shard].Count("fire", int64(id))
		for _, a := range script {
			h.exec(a, shard)
		}
	})
}

// exec performs one action from shard slot caller (-1: top level).
func (h *queueHarness) exec(a *qnode, caller int) {
	tr := h.tr[max(caller, 0)]
	switch a.kind {
	case qSched:
		h.schedule(a.id, a.shard, a.delta, a.script)
	case qBurst:
		for i := 0; i < a.n; i++ {
			h.schedule(a.id+i, a.burstShard(i), a.burstDelta(i), nil)
		}
	case qCancel:
		if len(h.timers) == 0 {
			return
		}
		k := a.k % len(h.timers)
		if !cancelAllowed(h.workers, caller, k, h.shardOf, h.ats, h.eng.Now()) {
			return
		}
		var ok bool
		if caller < 0 {
			ok = h.timers[k].Cancel()
		} else {
			ok = h.timers[k].cancelFrom(h.shards[caller])
		}
		tr.Count("cancel", int64(k)<<1|b2i(ok))
	case qStop:
		if caller >= 0 {
			h.eng.Stop()
			tr.Count("stop", 0)
		}
	}
}

// refEvent is one entry of the reference queue.
type refEvent struct {
	at     Time
	seq    uint64
	id     int
	shard  int
	script []*qnode
}

// refQueue is the reference: a slice sorted by (at, seq), a clock and
// a seq counter.  Cancel removes, pop takes the front.
type refQueue struct {
	workers int
	now     Time
	seq     uint64
	q       []refEvent
	queued  []bool // per timer id
	shardOf []int
	ats     []Time
	seqs    []uint64
	log     []queueLogEntry
	stops   int // Stop actions executed
}

func newRefQueue(workers int, shardOf []int) *refQueue {
	ids := len(shardOf)
	return &refQueue{workers: workers, shardOf: shardOf, queued: make([]bool, ids),
		ats: make([]Time, ids), seqs: make([]uint64, ids)}
}

func (r *refQueue) find(at Time, seq uint64) int {
	return sort.Search(len(r.q), func(i int) bool {
		e := &r.q[i]
		return e.at > at || (e.at == at && e.seq >= seq)
	})
}

func (r *refQueue) schedule(id, shard int, delta Time, script []*qnode) {
	ev := refEvent{at: r.now + delta, seq: r.seq, id: id, shard: shard, script: script}
	r.seq++
	r.queued[id], r.ats[id], r.seqs[id] = true, ev.at, ev.seq
	i := r.find(ev.at, ev.seq)
	r.q = append(r.q, refEvent{})
	copy(r.q[i+1:], r.q[i:])
	r.q[i] = ev
}

func (r *refQueue) cancel(k int) bool {
	if !r.queued[k] {
		return false
	}
	r.queued[k] = false
	i := r.find(r.ats[k], r.seqs[k])
	r.q = append(r.q[:i], r.q[i+1:]...)
	return true
}

func (r *refQueue) exec(a *qnode, caller int) {
	switch a.kind {
	case qSched:
		r.schedule(a.id, a.shard, a.delta, a.script)
	case qBurst:
		for i := 0; i < a.n; i++ {
			r.schedule(a.id+i, a.burstShard(i), a.burstDelta(i), nil)
		}
	case qCancel:
		if len(r.queued) == 0 {
			return
		}
		k := a.k % len(r.queued)
		if !cancelAllowed(r.workers, caller, k, r.shardOf, r.ats, r.now) {
			return
		}
		r.log = append(r.log, queueLogEntry{"cancel", int64(k)<<1 | b2i(r.cancel(k))})
	case qStop:
		if caller >= 0 {
			r.stops++
			r.log = append(r.log, queueLogEntry{"stop", 0})
		}
	}
}

// fire pops the front event and runs its script.
func (r *refQueue) fire() {
	ev := r.q[0]
	r.q = r.q[1:]
	r.queued[ev.id] = false
	r.now = ev.at
	r.log = append(r.log, queueLogEntry{"fire", int64(ev.id)})
	for _, a := range ev.script {
		r.exec(a, ev.shard)
	}
}

// runQueueProgram drives engine and reference through prog and returns
// the first disagreement.
func runQueueProgram(prog []*qnode, shardOf []int, workers int) error {
	h := newQueueHarness(workers, shardOf)
	r := newRefQueue(workers, shardOf)
	checked := 0

	// follow makes the reference fire as many events as the engine just
	// did — a parallel Stop ends the run at a segment barrier, which the
	// reference cannot predict, only check: what fired must be a prefix
	// of the reference order, a run that ends with work left before its
	// deadline must have executed a Stop, and the serial engine must
	// fire nothing after one.
	follow := func(what string, deadline Time) error {
		fired := 0
		for _, e := range h.log.entries[checked:] {
			if e.what == "fire" {
				fired++
			}
		}
		stops := r.stops
		for ; fired > 0; fired-- {
			if len(r.q) == 0 || r.q[0].at > deadline {
				return fmt.Errorf("%s: the engine fired %d more events than the reference has before %v", what, fired, deadline)
			}
			if workers <= 1 && r.stops > stops {
				return fmt.Errorf("%s: the serial engine fired an event after Stop", what)
			}
			r.fire()
		}
		if len(r.q) > 0 && r.q[0].at <= deadline && r.stops == stops {
			return fmt.Errorf("%s: the engine stopped with timer %d due at %v and no Stop", what, r.q[0].id, r.q[0].at)
		}
		return nil
	}
	agree := func(what string) error {
		if len(h.log.entries) != len(r.log) {
			return fmt.Errorf("%s: engine logged %d entries, reference %d", what, len(h.log.entries), len(r.log))
		}
		for i := checked; i < len(r.log); i++ {
			if h.log.entries[i] != r.log[i] {
				return fmt.Errorf("%s: entry %d: engine %v, reference %v", what, i, h.log.entries[i], r.log[i])
			}
		}
		checked = len(r.log)
		if h.eng.Pending() != len(r.q) {
			return fmt.Errorf("%s: Pending() = %d, reference holds %d", what, h.eng.Pending(), len(r.q))
		}
		if h.eng.Now() != r.now {
			return fmt.Errorf("%s: Now() = %v, reference %v", what, h.eng.Now(), r.now)
		}
		return nil
	}

	for i, a := range prog {
		what := fmt.Sprintf("op %d (kind %d, workers %d)", i, a.kind, workers)
		switch a.kind {
		case qStep:
			if stepped := h.eng.Step(); stepped != (len(r.q) > 0) {
				return fmt.Errorf("%s: Step() = %v with %d events in the reference", what, stepped, len(r.q))
			} else if stepped {
				r.fire()
			}
		case qRunUntil:
			deadline := h.eng.Now() + a.delta
			h.eng.RunUntil(deadline)
			if err := follow(what, deadline); err != nil {
				return err
			}
			r.now = max(r.now, deadline)
		default:
			h.exec(a, -1)
			r.exec(a, -1)
		}
		if err := agree(what); err != nil {
			return err
		}
	}
	// Drain.  Every Run fires at least one event, so this ends.
	for h.eng.Pending() > 0 {
		h.eng.Run()
		if err := follow("drain", maxTime); err != nil {
			return err
		}
		if err := agree("drain"); err != nil {
			return err
		}
	}
	if len(r.q) != 0 {
		return fmt.Errorf("drain: the engine is empty, the reference holds %d events", len(r.q))
	}
	// Every handle is stale now; none may touch a recycled struct.
	for id := range h.timers {
		if h.timers[id].Cancel() {
			return fmt.Errorf("timer %d cancelled after the queue drained", id)
		}
	}
	if free := len(h.eng.free); free > maxFreeEvents {
		return fmt.Errorf("free list holds %d events", free)
	}
	return nil
}

// Program builders for the seeds; they mirror queueDecoder.action.
func qpSched(delta, shard int, script ...[]byte) []byte {
	if len(script) > 2 {
		panic("a decoded script has at most two actions")
	}
	out := []byte{0, byte(delta), byte(shard), byte(len(script))}
	for _, s := range script {
		out = append(out, s...)
	}
	return out
}
func qpCancel(k int) []byte { return []byte{2, byte(k >> 8), byte(k)} }
func qpStop() []byte        { return []byte{3} }
func qpBurst(n40, delta int, spread, rotate bool, shard int) []byte {
	return []byte{4, byte(n40), byte(delta), byte(b2i(spread) | b2i(rotate)<<1 | int64(shard)<<2)}
}
func qpStep() []byte              { return []byte{5} }
func qpRunUntil(delta int) []byte { return []byte{6, byte(delta)} }

func qpJoin(parts ...[]byte) []byte {
	var out []byte
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// queueSeeds are the shapes that matter, by name.
var queueSeeds = map[string][]byte{
	// One callback schedules 10 000 events for one instant; two in the
	// middle of the chain and the head are then cancelled.
	"one-instant-10k": qpJoin(
		qpSched(1, 1, qpBurst(250, 0, false, false, 1)), qpStep(),
		qpCancel(5000), qpCancel(5001), qpCancel(5000), qpCancel(1), qpStep(), qpRunUntil(4)),
	// 10 000 instants of one event each: all heads, no chains.
	"singletons-10k": qpJoin(
		qpBurst(250, 1, true, true, 0), qpCancel(77), qpRunUntil(4), qpStep(), qpCancel(3)),
	// A cancelled event in the middle of a chain whose head then fires,
	// cancelled again, and a fired one cancelled.
	"cancel-mid-chain": qpJoin(
		qpSched(3, 2), qpSched(3, 2), qpSched(3, 2), qpSched(3, 0),
		qpCancel(1), qpCancel(1), qpStep(), qpCancel(0), qpStep(), qpStep(), qpStep()),
	// A callback cancels the tail and the middle of its own chain, then
	// extends it; dead events sit in front of and behind live ones.
	"cancel-from-callback": qpJoin(
		qpSched(3, 1, qpCancel(3), qpCancel(2)), qpSched(3, 1), qpSched(3, 1), qpSched(3, 1),
		qpSched(3, 1, qpSched(0, 1), qpCancel(1)), qpRunUntil(4)),
	// A callback cancels an event in the middle of a later instant's
	// chain: at workers > 1 the cancel is applied at the barrier.
	"cancel-future-chain": qpJoin(
		qpSched(1, 1, qpCancel(2)), qpSched(4, 1), qpSched(4, 1), qpSched(4, 1), qpRunUntil(4)),
	// Stop in the middle of a wide instant: three shards wide enough
	// for the worker pool, the stopping event, an exclusive event that
	// ends the segment, then events that schedule into the instant
	// again.  At workers > 1 the unrun rest re-enters the queue as a
	// second head with seqs older than what the stopped segment
	// scheduled, and its chain then grows past them: the one shape in
	// which a promoted successor must sink below another head.
	"stop-mid-instant": qpJoin(
		qpBurst(1, 3, false, false, 1), qpBurst(1, 3, false, false, 2), qpBurst(1, 3, false, false, 3),
		qpSched(3, 1, qpSched(0, 1), qpStop()), qpSched(3, 1, qpSched(0, 1)), qpSched(3, 0),
		qpSched(3, 1, qpSched(0, 1)), qpSched(3, 2, qpSched(0, 2)),
		qpRunUntil(4), qpStep(), qpStep(), qpStep(), qpStep(), qpStep(), qpStep(), qpRunUntil(4)),
	// Two instants scheduled alternately: every push misses the cache.
	"alternating": qpJoin(
		qpSched(2, 1), qpSched(3, 1), qpSched(2, 2), qpSched(3, 2), qpSched(2, 0), qpSched(3, 0),
		qpCancel(2), qpRunUntil(1), qpRunUntil(4)),
}

func TestEventQueueSeeds(t *testing.T) {
	for name, data := range queueSeeds {
		prog, shardOf := decodeQueueProgram(data)
		for _, workers := range []int{1, 4} {
			if err := runQueueProgram(prog, shardOf, workers); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	}
}

// FuzzEventQueue is the differential fuzz of the queue against
// refQueue, on the serial engine and at four workers (staged schedules
// and cancels applied at the barrier, pushBack after Stop).
func FuzzEventQueue(f *testing.F) {
	for _, data := range queueSeeds {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		prog, shardOf := decodeQueueProgram(data)
		for _, workers := range []int{1, 4} {
			if err := runQueueProgram(prog, shardOf, workers); err != nil {
				t.Fatal(err)
			}
		}
	})
}
