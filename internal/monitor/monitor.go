// Package monitor is the pool's operations plane: a daemon that
// attaches to a running pool — the deterministic simulation or the
// wall-clock live runtime — and streams its observability trace,
// metrics snapshots, and per-job timelines to any number of
// subscribed clients, plus the scoped admin verbs (drain, restart,
// compact) an operator steers the pool with.
//
// The plane's defining property is its failure scope: it is
// read-mostly and strictly one-way.  A monitor that dies, a
// subscriber whose connection drops, a stream that backs up — none of
// it perturbs the pool.  Job dispositions are byte-equal with and
// without a monitor attached (the ops-smoke experiment pins this),
// because the monitor only ever reads the pool's recorder and
// metrics; it injects nothing into the simulation and holds no locks
// the daemons contend on.  Admin verbs are the deliberate exception:
// they mutate the pool on the operator's behalf, and when one fails
// mid-flight the error escapes to the caller carrying the scope of
// exactly the machine or daemon it touched.
package monitor

import (
	"fmt"
	"sync"

	"github.com/errscope/grid/internal/daemon"
	"github.com/errscope/grid/internal/obs"
	"github.com/errscope/grid/internal/scope"
	"github.com/errscope/grid/internal/sim"
)

// Clock is the time source events and notes are stamped with.  Both
// the simulation engine and the live runtime satisfy it.
type Clock interface {
	Now() sim.Time
}

// Targets names the daemons admin verbs may touch.  A verb aimed at a
// name absent here fails with pool scope: the plane knows its own
// pool and nothing beyond it.
type Targets struct {
	Startds map[string]*daemon.Startd
	Schedds map[string]*daemon.Schedd
}

// Config attaches a monitor to a pool.
type Config struct {
	// Name identifies this monitor in its own log and in fault
	// scenarios ("monitor:<name>" sites).
	Name string

	// Clock stamps the monitor's own log lines.  Required.
	Clock Clock

	// Recorder is the pool trace the monitor streams; nil streams
	// metrics snapshots only.  The monitor only ever reads it, one
	// segment at a time from its slowest cursor (EventsSince copies
	// under the recorder's lock and delivery happens outside it), so a
	// slow or dead subscriber cannot block an emitting daemon.
	Recorder *obs.Recorder

	// Metrics builds one pool snapshot per pump; nil streams none.
	Metrics func() Snapshot

	// Normalize streams events in live-comparable form: timestamps
	// zeroed and free-form details dropped, the streamed twin of
	// obs.ExportOptions.Normalize.  Two live runs of the same
	// workload then stream byte-identical event records even though
	// the underlying clients stamp wall-clock times.
	Normalize bool

	// Targets are the daemons admin verbs resolve against.
	Targets Targets

	// Do serializes admin verbs with the pool's dispatch loop when
	// one exists (the live runtime's Do); nil runs verbs directly,
	// which is correct for the simulation where the caller already
	// interleaves verbs with engine steps.
	Do func(func())
}

// Sink receives the stream for one subscriber.  Deliver runs under
// the monitor's lock, so it must not block on a slow consumer: the
// network sinks buffer into a bounded queue drained by their own
// writer goroutine and fail on overflow rather than let TCP
// backpressure reach the pump.  Deliver's error means the subscriber
// is gone: the monitor closes and forgets the sink and nothing else —
// the defining non-failure of the ops plane.  Each record is encoded
// once per pump and the same line goes to every sink.
type Sink interface {
	Deliver(cmd byte, line string) error
	Close()
}

// subscriber is one attached sink and its cursor into the event log.
// gone marks a sink dropped earlier in the current pump.
type subscriber struct {
	sink Sink
	next int
	gone bool
}

// Monitor streams one pool's trace to its subscribers and runs admin
// verbs against it.  Safe for concurrent use; all state is under one
// mutex and the pool is never called while waiting on a subscriber.
type Monitor struct {
	mu        sync.Mutex
	cfg       Config
	subs      []*subscriber
	killed    bool
	delivered int64
	dropped   int
	log       []string

	// events is the pump's read buffer: one recorder segment, reused.
	events []obs.Event
}

// New attaches a monitor to the pool described by cfg.
func New(cfg Config) *Monitor {
	return &Monitor{cfg: cfg}
}

// Name returns the monitor's name.
func (m *Monitor) Name() string { return m.cfg.Name }

// note appends one line to the monitor's own log, stamped with the
// pool clock.  The log is the monitor's, never the pool trace: an ops
// event must not change the bytes of a golden run.
func (m *Monitor) note(format string, args ...any) {
	line := fmt.Sprintf("%12s %s", m.cfg.Clock.Now(), fmt.Sprintf(format, args...))
	m.log = append(m.log, line)
}

// Log returns a copy of the monitor's own log.
func (m *Monitor) Log() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]string(nil), m.log...)
}

// Subscribe attaches a sink, streaming from event index `from` (0 for
// the full backlog — late subscribers catch up on the next pump).  A
// killed monitor refuses: the daemon is dead, not just idle.
func (m *Monitor) Subscribe(sink Sink, from int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.killed {
		return m.deadErr()
	}
	// Mirror ParseSub's validation for in-process callers: a negative
	// cursor (or one that does not survive the int conversion) must be
	// refused here, not parked where the pump would slice with it.
	if from < 0 || int64(int(from)) != from {
		e := scope.New(scope.ScopeFunction, CodeBadRequest,
			"subscribe from %d: cursor must be a non-negative int", from)
		return e.WithOrigin(m.cfg.Name)
	}
	m.subs = append(m.subs, &subscriber{sink: sink, next: int(from)})
	m.note("subscriber attached (from=%d, %d total)", from, len(m.subs))
	return nil
}

// Detach removes and closes one sink; unknown sinks are ignored (the
// pump may have already dropped it).
func (m *Monitor) Detach(sink Sink) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, sub := range m.subs {
		if sub.sink == sink {
			m.subs = append(m.subs[:i], m.subs[i+1:]...)
			sub.sink.Close()
			m.note("subscriber detached (%d remain)", len(m.subs))
			return
		}
	}
}

// Subscribers returns the number of attached sinks.
func (m *Monitor) Subscribers() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.subs)
}

// Delivered returns the total records delivered across subscribers.
func (m *Monitor) Delivered() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.delivered
}

// Dropped returns the number of subscribers dropped on delivery
// failure.
func (m *Monitor) Dropped() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dropped
}

// Pump streams the recorder's new events to every subscriber, then
// one metrics snapshot each.  A sink whose Deliver fails is closed
// and forgotten — that subscriber's failure is scoped to its own
// session, and the pump carries on with the rest.  Deliver never
// blocks on a slow consumer (see Sink), so holding the monitor's lock
// across delivery cannot stall the pool stepping loop behind it.
//
// The pump reads the log from its slowest cursor forward, one
// recorder segment at a time, so it costs what is new to its
// subscribers, not the length of the log.
func (m *Monitor) Pump() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.killed || len(m.subs) == 0 {
		return
	}
	// The log as of now is this pump's horizon: a cursor beyond it
	// means the subscriber asked to start in the future, and it picks
	// up (snapshots too) when the log catches up.
	end := 0
	if m.cfg.Recorder != nil {
		end = m.cfg.Recorder.Len()
	}
	from := end
	for _, sub := range m.subs {
		from = min(from, sub.next)
	}
	for from < end {
		m.events = m.cfg.Recorder.EventsSince(from, m.events)
		for _, ev := range m.events[:min(len(m.events), end-from)] {
			m.streamEvent(from, ev)
			from++
		}
	}
	if m.cfg.Metrics != nil {
		line := EncodeSnapshot(m.cfg.Metrics())
		for _, sub := range m.subs {
			if !sub.gone && sub.next <= end {
				m.deliver(sub, cmdMetrics, line)
			}
		}
	}
	live := m.subs[:0]
	for _, sub := range m.subs {
		if !sub.gone {
			live = append(live, sub)
		}
	}
	// Zero the dropped tail so forgotten subscribers are collectable.
	clear(m.subs[len(live):])
	m.subs = live
}

// streamEvent delivers the event at index i of the log to every
// subscriber whose cursor stands there, encoding it at most once.
func (m *Monitor) streamEvent(i int, ev obs.Event) {
	line := ""
	for _, sub := range m.subs {
		if sub.gone || sub.next != i {
			continue
		}
		if line == "" {
			if m.cfg.Normalize {
				ev.T = 0
				ev.Detail = ""
			}
			line = EncodeEvent(ev)
		}
		if m.deliver(sub, cmdEvent, line) {
			sub.next++
		}
	}
}

// deliver hands one record to one subscriber; false means the
// subscriber is gone and was closed.
func (m *Monitor) deliver(sub *subscriber, cmd byte, line string) bool {
	if err := sub.sink.Deliver(cmd, line); err != nil {
		m.drop(sub, err)
		return false
	}
	m.delivered++
	return true
}

// drop closes a failed subscriber and records the loss in the
// monitor's own log — the pool never hears about it.
func (m *Monitor) drop(sub *subscriber, err error) {
	sub.sink.Close()
	sub.gone = true
	m.dropped++
	m.note("subscriber dropped at cursor %d: %v", sub.next, err)
}

// DropSubscribers closes every attached sink and returns how many
// were dropped.  The monitor itself stays alive and new subscribers
// may attach — this is the "stream drop" fault, not a daemon death.
func (m *Monitor) DropSubscribers() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := len(m.subs)
	for _, sub := range m.subs {
		sub.sink.Close()
	}
	m.subs = nil
	m.dropped += n
	m.note("all %d subscribers dropped", n)
	return n
}

// Kill terminates the monitor daemon: every subscriber session closes
// and no new ones may attach.  Returns the number of sessions closed.
// The pool does not notice — that is the point.
func (m *Monitor) Kill() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := len(m.subs)
	for _, sub := range m.subs {
		sub.sink.Close()
	}
	m.subs = nil
	m.killed = true
	m.note("monitor killed (%d sessions closed)", n)
	return n
}

// Killed reports whether the monitor has been killed.
func (m *Monitor) Killed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.killed
}

// deadErr is the process-scope refusal of a killed monitor.
func (m *Monitor) deadErr() error {
	e := scope.New(scope.ScopeProcess, "MonitorDead",
		"monitor %s has been killed", m.cfg.Name)
	return e.WithOrigin(m.cfg.Name)
}

// Admin runs one operator verb against the pool and returns a
// human-readable detail line.  Failure carries the scope of the exact
// machine or daemon the verb touched; an unknown verb or target is a
// pool-scope error naming what the caller asked for.  Verbs run under
// cfg.Do when set, serializing with a live dispatch loop.
func (m *Monitor) Admin(verb, target string) (string, error) {
	m.mu.Lock()
	if m.killed {
		m.mu.Unlock()
		return "", m.deadErr()
	}
	run := m.cfg.Do
	m.mu.Unlock()
	if run == nil {
		run = func(fn func()) { fn() }
	}
	var detail string
	var err error
	run(func() {
		// Re-check under the lock on the pool's thread: a Kill that
		// lands between Admin's entry check and the verb reaching the
		// pool still refuses — a killed monitor mutates nothing.
		m.mu.Lock()
		dead := m.killed
		m.mu.Unlock()
		if dead {
			err = m.deadErr()
			return
		}
		detail, err = m.admin(verb, target)
	})
	m.mu.Lock()
	if err != nil {
		m.note("admin %s %s failed: %v", verb, target, err)
	} else {
		m.note("admin %s %s: %s", verb, target, detail)
	}
	m.mu.Unlock()
	return detail, err
}

// admin dispatches one verb.  Runs on the pool's thread (under
// cfg.Do) — never under the monitor mutex, so a verb that blocks
// cannot stall the stream.
func (m *Monitor) admin(verb, target string) (string, error) {
	switch verb {
	case "drain":
		sd := m.cfg.Targets.Startds[target]
		if sd == nil {
			return "", m.unknownTarget(verb, "machine", target)
		}
		if err := sd.Drain(); err != nil {
			return "", err
		}
		return fmt.Sprintf("draining %s: matching stopped, residents vacating", target), nil

	case "resume":
		sd := m.cfg.Targets.Startds[target]
		if sd == nil {
			return "", m.unknownTarget(verb, "machine", target)
		}
		sd.Resume()
		return fmt.Sprintf("%s resumed: matching restored", target), nil

	case "restart":
		if sd := m.cfg.Targets.Startds[target]; sd != nil {
			sd.Crash()
			sd.Restart()
			return fmt.Sprintf("startd %s restarted", target), nil
		}
		if s := m.cfg.Targets.Schedds[target]; s != nil {
			s.Crash()
			if err := s.Recover(s.Journal()); err != nil {
				// Recovery failure already carries the journal's
				// scope; widen the audience to the operator with the
				// daemon the verb touched.
				esc := scope.Escape(scope.ScopeLocalResource, "RestartFailed", err)
				return "", esc.WithOrigin(s.Name())
			}
			return fmt.Sprintf("schedd %s restarted: journal replayed", target), nil
		}
		return "", m.unknownTarget(verb, "daemon", target)

	case "compact":
		s := m.cfg.Targets.Schedds[target]
		if s == nil {
			return "", m.unknownTarget(verb, "schedd", target)
		}
		if err := s.ForceCompact(); err != nil {
			return "", err
		}
		return fmt.Sprintf("schedd %s journal compacted", target), nil

	default:
		e := scope.New(scope.ScopePool, "UnknownVerb",
			"monitor %s knows no verb %q", m.cfg.Name, verb)
		return "", e.WithOrigin(m.cfg.Name)
	}
}

// unknownTarget builds the pool-scope error for a verb aimed at a
// name this pool does not have.
func (m *Monitor) unknownTarget(verb, kind, target string) error {
	e := scope.New(scope.ScopePool, "UnknownTarget",
		"%s: no %s named %q in this pool", verb, kind, target)
	return e.WithOrigin(m.cfg.Name)
}
