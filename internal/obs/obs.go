// Package obs is the observability substrate of the grid: structured
// tracing of error propagation plus cheap counters and histograms,
// behind an interface whose no-op implementation keeps the hot paths
// allocation-free when tracing is off.
//
// The unit of tracing is the Event: one component observing one thing
// at one instant.  Error events carry the scoped-error triple (code,
// scope, kind) of Section 3 of the paper; a Recorder assembles the
// error events of one job attempt into a Span — origin site, each
// daemon hop, final disposition, and the sim-time latency between
// origin and disposition — which is exactly the propagation path the
// paper's Figure 3 describes in prose.
//
// The package deliberately imports nothing from the simulation or
// daemon layers (they import it), so timestamps are plain int64
// nanoseconds: virtual time on the simulated bus, wall time in the
// live protocol stacks.
package obs

// Event kinds.  Error events open or extend a span; disposition
// events close one; the rest annotate the timeline.
const (
	// KindError is a scoped error observed at a component.  The first
	// error event of a job attempt is the origin site; later ones are
	// the hops of the propagation path.
	KindError = "error"
	// KindDisposition is the schedd's last-line-of-defense decision
	// for one attempt: complete, unexecutable, requeue, or hold.
	KindDisposition = "disposition"
	// KindState is a job lifecycle transition (submitted, matched,
	// executing, ...), mirroring the user-facing job event log.
	KindState = "state"
	// KindMsg is a message accepted by the bus for delivery.
	KindMsg = "msg"
	// KindMsgLost is a message the network lost: dropped in transit
	// or addressed to a dead actor.
	KindMsgLost = "msg-lost"
	// KindRetry is one retry decision (e.g. a shadow fetch retry),
	// with the backoff recorded in Value.
	KindRetry = "retry"
	// KindRecovery is a daemon rebuilding its state from durable
	// storage after a crash — e.g. the schedd replaying its write-ahead
	// journal.  Value carries the number of journal records replayed.
	KindRecovery = "recovery"
)

// Event is one traced observation.  The zero value of every field is
// omitted from the JSON encoding, keeping trace lines short.
type Event struct {
	// T is the observation instant in nanoseconds: virtual time in
	// the simulation, wall time in the live stacks.
	T int64 `json:"t"`
	// Comp is the emitting component ("schedd", "shadow:schedd:1",
	// "bus", "jvm", "wrapper", "chirp-client", ...).
	Comp string `json:"comp"`
	// Kind is one of the Kind* constants.
	Kind string `json:"kind"`
	// Job identifies the job the event concerns; 0 means none.
	Job int64 `json:"job,omitempty"`
	// Code is the error code, message kind, or state name.
	Code string `json:"code,omitempty"`
	// Scope is the error's scope name, for error and disposition
	// events.
	Scope string `json:"scope,omitempty"`
	// EKind is the error kind name (implicit, explicit, escaping).
	EKind string `json:"ekind,omitempty"`
	// Detail is a human-readable elaboration.
	Detail string `json:"detail,omitempty"`
	// Value is an event-specific quantity (a backoff in nanoseconds,
	// a byte count).
	Value int64 `json:"value,omitempty"`
}

// Tracer receives events and metrics.  Implementations must be safe
// for concurrent use: the live protocol stacks emit from many
// goroutines.
//
// Hot paths guard expensive event construction behind Enabled, so the
// disabled tracer costs one interface call and no allocation:
//
//	if tr.Enabled() {
//		tr.Emit(obs.Event{...})
//	}
//
// Count and Observe take constant name strings and integer values, so
// they may be called unguarded without allocating.
type Tracer interface {
	// Enabled reports whether events will be retained.  Callers use
	// it to skip building Detail strings nobody will read.
	Enabled() bool
	// Emit records one event.
	Emit(Event)
	// Count adds delta to the named counter.
	Count(name string, delta int64)
	// Observe records one sample of the named distribution.
	Observe(name string, v int64)
}

// NopTracer discards everything.  All methods are trivially
// allocation-free.
type NopTracer struct{}

// Enabled reports false: skip event construction entirely.
func (NopTracer) Enabled() bool { return false }

// Emit discards the event.
func (NopTracer) Emit(Event) {}

// Count discards the increment.
func (NopTracer) Count(string, int64) {}

// Observe discards the sample.
func (NopTracer) Observe(string, int64) {}

// Nop is the shared disabled tracer.
var Nop Tracer = NopTracer{}

// Or returns t, or Nop when t is nil, so components can store a
// tracer field unconditionally and never nil-check on the hot path.
func Or(t Tracer) Tracer {
	if t == nil {
		return Nop
	}
	return t
}

// JobTagged is implemented by message bodies that concern one job.
// The bus uses it to attribute message events to jobs without knowing
// any daemon types; bodies that do not implement it (periodic ads,
// internal notices) stay out of traces.
type JobTagged interface {
	TracedJob() int64
}

// JobRun is implemented by message bodies that carry a run of per-job
// notices, one job each, which the sender would otherwise have sent as
// consecutive messages.  The bus attributes one message event to each
// job of the run, in order, so a trace reads as if every notice had
// travelled alone.
type JobRun interface {
	TracedJobs() int
	TracedJobAt(i int) int64
}
