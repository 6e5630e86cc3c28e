package sim

// Parallel deterministic execution: events of one virtual instant are
// partitioned by a stable shard key (the owning daemon or machine
// actor) and events of different shards run concurrently on a worker
// pool, with a barrier at every instant boundary.
//
// Determinism is preserved by a staging discipline.  While a wave
// runs, no shard touches shared engine state: every externally
// visible effect — a new schedule, a timer cancel, a bus send, a
// registry change, a trace emission — is appended to the executing
// shard's staging buffer, stamped with (parent event seq, intra-event
// index).  The barrier merges all buffers in stamp order and applies
// the effects through the ordinary serial code paths.  Because the
// serial engine executes same-instant events in seq order and applies
// each event's effects inline, replaying staged effects in stamp
// order performs the identical sequence of heap pushes, seq
// assignments, fault-model consultations, and trace emissions — so
// the parallel engine's traces, dispositions, and journals are byte
// for byte the serial engine's.
//
// Same-instant events created during a wave (schedules at Now()) form
// the next wave of the same instant, which again matches the serial
// heap: their seqs are larger than every event of the current wave.
//
// Shard keys derive from actor-name structure: "kind:owner:seq"
// belongs to owner's shard, so a shadow shares its schedd's shard and
// a starter its machine's — matching the direct pointer coupling in
// package daemon.  Events with no affinity (experiment toggles, fault
// injections) belong to the exclusive global shard and run alone
// between barriers.

import (
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/errscope/grid/internal/obs"
)

// globalShard is the exclusive shard: its events run alone, with a
// barrier before and after, so arbitrary cross-daemon mutations
// (fault injection, experiment toggles) stay race-free and ordered.
const globalShard int32 = 0

// parallelGrain is the minimum segment size (in events) worth
// dispatching to the worker pool; smaller segments run inline.
const parallelGrain = 32

// maxTime is the largest representable virtual instant.
const maxTime = Time(1<<63 - 1)

// ShardKey derives the shard key from an actor name.  Names follow
// the "kind:owner:seq" convention — "shadow:schedd:17" runs on
// schedd's shard, "starter:c0041:2" on machine c0041's — and a plain
// name is its own shard.
func ShardKey(name string) string {
	i := strings.IndexByte(name, ':')
	if i < 0 {
		return name
	}
	rest := name[i+1:]
	j := strings.IndexByte(rest, ':')
	if j < 0 {
		return name
	}
	return rest[:j]
}

// ShardID interns a shard key to a dense id, allocating one on first
// use.  It must not be called during a wave; wave-time paths use the
// read-only lookup.
func (e *Engine) ShardID(key string) int32 {
	if id, ok := e.shardIDs[key]; ok {
		return id
	}
	id := int32(len(e.shardNames))
	e.shardNames = append(e.shardNames, key)
	e.shardIDs[key] = id
	e.shardRngs = append(e.shardRngs, nil)
	e.ctxs = append(e.ctxs, nil)
	return id
}

// shardIDOf is the read-only intern lookup, safe during a wave.
func (e *Engine) shardIDOf(key string) (int32, bool) {
	id, ok := e.shardIDs[key]
	return id, ok
}

// ShardRand returns the deterministic random stream of the shard,
// derived from the engine seed and the shard's interned key, so
// shards draw independently of one another and of execution
// interleaving.  Shard 0 shares the engine's root source.
func (e *Engine) ShardRand(shard int32) *rand.Rand {
	if shard <= 0 || int(shard) >= len(e.shardRngs) {
		return e.rng
	}
	if e.shardRngs[shard] == nil {
		// A cheap, stable string hash (FNV-1a) folds the key into the
		// seed; interning order does not influence the stream.
		h := uint64(14695981039346656037)
		for i := 0; i < len(e.shardNames[shard]); i++ {
			h ^= uint64(e.shardNames[shard][i])
			h *= 1099511628211
		}
		e.shardRngs[shard] = rand.New(rand.NewSource(e.seed ^ int64(h)))
	}
	return e.shardRngs[shard]
}

// effectKind tags one staged effect.
type effectKind uint8

const (
	fxSchedule effectKind = iota
	fxCancel
	fxSend
	fxEmit
	fxCount
	fxObserve
	fxBusTrace
	fxRegister
	fxUnregister
)

// effect is one staged externally visible action, replayed at the
// barrier in (parent, idx) order.
type effect struct {
	parent uint64
	idx    uint32
	kind   effectKind

	ev        *event     // schedule / cancel
	gen       uint64     // cancel: the handle's incarnation
	bus       *Bus       // send / busTrace / register / unregister
	msg       Message    // send / busTrace
	delivered bool       // busTrace
	tr        obs.Tracer // emit / count / observe
	obsEv     *obs.Event // emit; boxed — the 120-byte Event would
	// otherwise dominate the struct, and emits are staged only when
	// tracing is on, so the box costs nothing on the untraced path.
	name  string // count / observe / register / unregister
	delta int64  // count / observe
	actor Actor  // register
}

// shardCtx is one shard's staging state for the current wave.  It is
// touched only by the single worker executing the shard, and by the
// single-threaded barrier.
type shardCtx struct {
	shard   int32
	events  []*event
	effects []effect
	parent  uint64
	idx     uint32
	// overlay holds this shard's registry changes during the wave; a
	// nil Actor is a tombstone.  Registrations for a name and
	// deliveries to it always run on the same shard (names carry
	// their shard key), so the overlay is consulted only locally.
	overlay map[string]Actor
	// freeDel collects delivery records retired during the wave; the
	// barrier returns them to their bus's single-threaded free list.
	// Without this staging every wave-mode delivery would miss the
	// pool and allocate.
	freeDel   []*delivery
	processed uint64
	active    bool
}

func (c *shardCtx) stamp() (uint64, uint32) {
	i := c.idx
	c.idx++
	return c.parent, i
}

func (c *shardCtx) stageSchedule(ev *event) {
	p, i := c.stamp()
	c.effects = append(c.effects, effect{parent: p, idx: i, kind: fxSchedule, ev: ev})
}

func (c *shardCtx) stageCancel(ev *event, gen uint64) {
	p, i := c.stamp()
	c.effects = append(c.effects, effect{parent: p, idx: i, kind: fxCancel, ev: ev, gen: gen})
}

func (c *shardCtx) stageSend(b *Bus, m Message) {
	p, i := c.stamp()
	c.effects = append(c.effects, effect{parent: p, idx: i, kind: fxSend, bus: b, msg: m})
}

func (c *shardCtx) stageBusTrace(b *Bus, m Message, delivered bool) {
	p, i := c.stamp()
	c.effects = append(c.effects, effect{parent: p, idx: i, kind: fxBusTrace, bus: b, msg: m, delivered: delivered})
}

func (c *shardCtx) stageEmit(tr obs.Tracer, ev obs.Event) {
	p, i := c.stamp()
	c.effects = append(c.effects, effect{parent: p, idx: i, kind: fxEmit, tr: tr, obsEv: &ev})
}

func (c *shardCtx) stageCount(tr obs.Tracer, name string, delta int64) {
	p, i := c.stamp()
	c.effects = append(c.effects, effect{parent: p, idx: i, kind: fxCount, tr: tr, name: name, delta: delta})
}

func (c *shardCtx) stageObserve(tr obs.Tracer, name string, v int64) {
	p, i := c.stamp()
	c.effects = append(c.effects, effect{parent: p, idx: i, kind: fxObserve, tr: tr, name: name, delta: v})
}

func (c *shardCtx) stageRegister(b *Bus, name string, a Actor) {
	p, i := c.stamp()
	c.effects = append(c.effects, effect{parent: p, idx: i, kind: fxRegister, bus: b, name: name, actor: a})
	if c.overlay == nil {
		c.overlay = make(map[string]Actor)
	}
	c.overlay[name] = a
}

func (c *shardCtx) stageUnregister(b *Bus, name string) {
	p, i := c.stamp()
	c.effects = append(c.effects, effect{parent: p, idx: i, kind: fxUnregister, bus: b, name: name})
	if c.overlay == nil {
		c.overlay = make(map[string]Actor)
	}
	c.overlay[name] = nil
}

// ctxFor returns the shard's persistent staging context, allocating
// it on first use.  Barrier-side only.
func (e *Engine) ctxFor(shard int32) *shardCtx {
	c := e.ctxs[shard]
	if c == nil {
		c = &shardCtx{shard: shard}
		e.ctxs[shard] = c
	}
	return c
}

// activeCtx returns the shard's staging context when a wave is
// running and the shard belongs to the current segment; nil
// otherwise, which tells callers to use the serial path.
func (e *Engine) activeCtx(shard int32) *shardCtx {
	if !e.waveActive || shard <= 0 || int(shard) >= len(e.ctxs) {
		return nil
	}
	c := e.ctxs[shard]
	if c == nil || !c.active {
		return nil
	}
	return c
}

// activeCtxByOwner resolves an actor name to its shard's active
// context during a wave.
func (e *Engine) activeCtxByOwner(name string) *shardCtx {
	if !e.waveActive {
		return nil
	}
	id, ok := e.shardIDOf(ShardKey(name))
	if !ok {
		return nil
	}
	return e.activeCtx(id)
}

// afterScoped schedules fn on the shard d from now.  During a wave
// the schedule is staged: the event struct exists immediately (its
// Timer is valid) but its seq is assigned at the barrier, in stamp
// order, exactly where the serial engine would have assigned it.
func (e *Engine) afterScoped(shard int32, d Time, fn func()) Timer {
	at := e.now + d
	if ctx := e.activeCtx(shard); ctx != nil {
		if at < e.now {
			panic("sim: scheduling event into the past")
		}
		ev := &event{at: at, fn: fn, index: stagedIndex, shard: shard}
		ctx.stageSchedule(ev)
		return Timer{eng: e, ev: ev, gen: 0}
	}
	return e.atShard(shard, at, fn)
}

// runParallel is the wave-mode driver behind Run and RunUntil.
func (e *Engine) runParallel(deadline Time, clamp bool) {
	e.stopped.Store(false)
	for !e.stopped.Load() {
		if len(e.events) == 0 {
			break
		}
		t := e.events[0].at
		if t > deadline {
			break
		}
		e.now = t
		e.runInstant(t)
	}
	if clamp && e.now < deadline {
		e.now = deadline
	}
}

// runInstant executes every event of instant t, wave by wave: each
// wave is the set of events at t currently in the heap, split into
// parallel segments at exclusive (global-shard) events.
func (e *Engine) runInstant(t Time) {
	for !e.stopped.Load() {
		wave := e.waveBuf[:0]
		for len(e.events) > 0 && e.events[0].at == t {
			wave = append(wave, e.popMin())
		}
		e.waveBuf = wave[:0]
		if len(wave) == 0 {
			return
		}
		i := 0
		for i < len(wave) {
			if e.stopped.Load() {
				e.pushBack(wave[i:])
				return
			}
			ev := wave[i]
			if ev.shard == globalShard {
				// Exclusive event: plain serial semantics, effects
				// applied inline.
				if ev.skip {
					e.recycle(ev)
				} else {
					fn := ev.fn
					e.recycle(ev)
					e.processed++
					fn()
				}
				i++
				continue
			}
			j := i
			for j < len(wave) && wave[j].shard != globalShard {
				j++
			}
			e.runSegment(wave[i:j])
			i = j
		}
	}
}

// pushBack returns unrun wave events to the heap after a Stop.
// Events already skip-marked were cancelled and are recycled, as the
// serial engine would have removed them from the heap.
func (e *Engine) pushBack(evs []*event) {
	for _, ev := range evs {
		if ev.skip {
			e.recycle(ev)
			continue
		}
		e.push(ev)
	}
}

// SegmentStats reports how many parallel segments have run and how
// many shard executions they contained; shards/segments is the mean
// parallelism available to the worker pool.
func (e *Engine) SegmentStats() (segments, shards uint64) {
	return e.segs, e.segShards
}

// runSegment executes one parallel segment: group by shard, run the
// shards concurrently, then merge staged effects at the barrier.
func (e *Engine) runSegment(evs []*event) {
	segCtxs := e.segCtxBuf[:0]
	for _, ev := range evs {
		c := e.ctxFor(ev.shard)
		if !c.active {
			c.active = true
			segCtxs = append(segCtxs, c)
		}
		c.events = append(c.events, ev)
	}
	e.segCtxBuf = segCtxs[:0]
	e.segs++
	e.segShards += uint64(len(segCtxs))

	e.waveActive = true
	// Grain cutoff: dispatching a segment to the pool costs a few
	// goroutine wakeups, which a handful of events cannot amortize.
	// Small segments run their shards inline — sequentially, on the
	// driver — which changes nothing observable: the staging and merge
	// discipline, not the worker schedule, is what fixes the effect
	// order, so the cutoff is pure overhead control.  It is also why
	// the parallel engine degrades gracefully to near-serial cost on a
	// host with no spare cores.
	if n := min(e.workers, len(segCtxs)); n <= 1 || len(evs) < parallelGrain {
		for _, c := range segCtxs {
			runShard(c)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(n)
		for w := 0; w < n; w++ {
			go func() {
				defer wg.Done()
				for {
					k := next.Add(1) - 1
					if int(k) >= len(segCtxs) {
						return
					}
					runShard(segCtxs[int(k)])
				}
			}()
		}
		wg.Wait()
	}
	e.waveActive = false

	// Barrier: merge staged effects in (parent, idx) order and apply
	// them through the serial paths.  One shard's buffer is already in
	// stamp order — runShard walks its events in seq order and idx
	// grows within an event — so a single-shard segment applies its
	// effects directly; a narrow segment k-way merges the sorted
	// per-shard buffers in place (stamps are unique across shards —
	// parent is the event seq — so the merge is a total order); and a
	// wide segment, where the linear merge's effects×shards scan would
	// blow up, falls back to flatten-and-sort.
	const mergeWidth = 8
	switch {
	case len(segCtxs) == 1:
		c := segCtxs[0]
		for i := range c.effects {
			e.applyEffect(&c.effects[i])
		}
	case len(segCtxs) <= mergeWidth:
		pos := e.posBuf[:0]
		for range segCtxs {
			pos = append(pos, 0)
		}
		for {
			var best *effect
			bi := -1
			for ci, c := range segCtxs {
				p := pos[ci]
				if p >= len(c.effects) {
					continue
				}
				fx := &c.effects[p]
				if bi < 0 || fx.parent < best.parent ||
					(fx.parent == best.parent && fx.idx < best.idx) {
					best, bi = fx, ci
				}
			}
			if bi < 0 {
				break
			}
			pos[bi]++
			e.applyEffect(best)
		}
		e.posBuf = pos[:0]
	default:
		all := e.fxBuf[:0]
		for _, c := range segCtxs {
			all = append(all, c.effects...)
		}
		slices.SortFunc(all, func(a, b effect) int {
			if a.parent != b.parent {
				if a.parent < b.parent {
					return -1
				}
				return 1
			}
			return int(a.idx) - int(b.idx)
		})
		for i := range all {
			e.applyEffect(&all[i])
		}
		clear(all)
		e.fxBuf = all[:0]
	}

	// Bookkeeping, in deterministic segment order.
	for _, c := range segCtxs {
		e.processed += c.processed
		c.processed = 0
		for i, d := range c.freeDel {
			d.bus.putDelivery(d)
			c.freeDel[i] = nil
		}
		c.freeDel = c.freeDel[:0]
		for _, ev := range c.events {
			e.recycle(ev)
		}
		c.events = c.events[:0]
		clear(c.effects)
		c.effects = c.effects[:0]
		for k := range c.overlay {
			delete(c.overlay, k)
		}
		c.active = false
	}
}

// runShard executes one shard's wave events sequentially in seq
// order, staging every externally visible effect.
func runShard(c *shardCtx) {
	for _, ev := range c.events {
		if ev.skip {
			continue
		}
		c.parent = ev.seq
		c.idx = 0
		// done before the call: an event that cancels its own timer
		// while running gets false, as on the serial engine.
		ev.done = true
		ev.fn()
		c.processed++
	}
}

// applyEffect replays one staged effect at the barrier.
func (e *Engine) applyEffect(fx *effect) {
	switch fx.kind {
	case fxSchedule:
		ev := fx.ev
		ev.seq = e.seq
		e.seq++
		e.push(ev)
	case fxCancel:
		ev := fx.ev
		if fx.gen == ev.gen {
			e.cancelQueued(ev)
		}
	case fxSend:
		fx.bus.sendNow(fx.msg)
	case fxBusTrace:
		if fx.bus.Trace != nil {
			fx.bus.Trace(fx.msg, fx.delivered)
		}
	case fxEmit:
		fx.tr.Emit(*fx.obsEv)
	case fxCount:
		fx.tr.Count(fx.name, fx.delta)
	case fxObserve:
		fx.tr.Observe(fx.name, fx.delta)
	case fxRegister:
		fx.bus.registerNow(fx.name, fx.actor)
	case fxUnregister:
		delete(fx.bus.actors, fx.name)
	}
}

// shardTracer stages a daemon's trace stream during waves so that the
// merged recording reproduces the serial emission order, and passes
// straight through otherwise.
type shardTracer struct {
	e     *Engine
	shard int32
	base  obs.Tracer
}

// ShardTracer binds a tracer to the shard of the named actor.  A nil
// base stays nil, preserving "tracing off" checks in callers.
func (e *Engine) ShardTracer(owner string, base obs.Tracer) obs.Tracer {
	if base == nil {
		return nil
	}
	return &shardTracer{e: e, shard: e.ShardID(ShardKey(owner)), base: base}
}

func (t *shardTracer) Enabled() bool { return t.base.Enabled() }

func (t *shardTracer) Emit(ev obs.Event) {
	if ctx := t.e.activeCtx(t.shard); ctx != nil {
		ctx.stageEmit(t.base, ev)
		return
	}
	t.base.Emit(ev)
}

func (t *shardTracer) Count(name string, delta int64) {
	if ctx := t.e.activeCtx(t.shard); ctx != nil {
		ctx.stageCount(t.base, name, delta)
		return
	}
	t.base.Count(name, delta)
}

func (t *shardTracer) Observe(name string, v int64) {
	if ctx := t.e.activeCtx(t.shard); ctx != nil {
		ctx.stageObserve(t.base, name, v)
		return
	}
	t.base.Observe(name, v)
}
