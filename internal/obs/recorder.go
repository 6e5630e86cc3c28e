package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// Recorder is the collecting Tracer: it retains every event in emit
// order and aggregates counters and histograms.  It is safe for
// concurrent use; under the deterministic simulation, emit order is
// itself deterministic, so a recorded trace is reproducible byte for
// byte.
type Recorder struct {
	mu       sync.Mutex
	segs     [][]Event // every segment but the last holds segSize events
	n        int
	counters map[string]int64
	hists    map[string]*Histogram
}

// The event log is a list of fixed-size segments that are only ever
// appended to: recording an event never moves an earlier one, and a
// reader holding a cursor (EventsSince) copies what is new to it, not
// the whole past.
const (
	segShift = 10
	segSize  = 1 << segShift
)

// Histogram is a cheap summary of one observed distribution.
type Histogram struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	Min   int64 `json:"min"`
	Max   int64 `json:"max"`
}

// NewRecorder creates an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{
		counters: make(map[string]int64),
		hists:    make(map[string]*Histogram),
	}
}

// Enabled reports true: callers should build full events.
func (r *Recorder) Enabled() bool { return true }

// Emit appends the event.
func (r *Recorder) Emit(ev Event) {
	r.mu.Lock()
	if r.n&(segSize-1) == 0 {
		r.segs = append(r.segs, make([]Event, 0, segSize))
	}
	last := len(r.segs) - 1
	r.segs[last] = append(r.segs[last], ev)
	r.n++
	r.mu.Unlock()
}

// Count adds delta to the named counter.
func (r *Recorder) Count(name string, delta int64) {
	r.mu.Lock()
	r.counters[name] += delta
	r.mu.Unlock()
}

// Observe records one sample of the named distribution.
func (r *Recorder) Observe(name string, v int64) {
	r.mu.Lock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{Min: v, Max: v}
		r.hists[name] = h
	}
	h.Count++
	h.Sum += v
	if v < h.Min {
		h.Min = v
	}
	if v > h.Max {
		h.Max = v
	}
	r.mu.Unlock()
}

// Events returns a copy of the recorded events in emit order.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, r.n)
	for _, seg := range r.segs {
		out = append(out, seg...)
	}
	return out
}

// Len returns the number of events recorded so far: the cursor of a
// reader that has seen everything.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// EventsSince is the cursor read: it copies the events from index
// from up to the end of the segment that holds it — at most segSize
// events, however long the log — into buf[:0] and returns them.  A
// reader advances its cursor by the length of the result and calls
// again; an empty result means it is caught up (or from is not an
// index of the log at all).  The result is the caller's own copy.
func (r *Recorder) EventsSince(from int, buf []Event) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	buf = buf[:0]
	if from < 0 || from >= r.n {
		return buf
	}
	return append(buf, r.segs[from>>segShift][from&(segSize-1):]...)
}

// Counter returns the named counter's value.
func (r *Recorder) Counter(name string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

// CounterNames returns the counter names, sorted.
func (r *Recorder) CounterNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters))
	for n := range r.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Hist returns a copy of the named histogram summary, or a zero
// summary when nothing was observed.
func (r *Recorder) Hist(name string) Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h := r.hists[name]; h != nil {
		return *h
	}
	return Histogram{}
}

// HistNames returns the histogram names, sorted.
func (r *Recorder) HistNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.hists))
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ExportOptions configure the JSONL export.
type ExportOptions struct {
	// Normalize prepares a trace from the live (wall-clock) stacks
	// for byte comparison: timestamps and span latencies are zeroed,
	// free-form details are dropped (on a live stack they embed
	// ephemeral ports and OS error text), and event/span lines are
	// sorted, so concurrent emitters cannot make two
	// otherwise-identical traces differ by arrival order.
	Normalize bool
}

// WriteJSONL writes the whole recording as JSON lines: events, then
// assembled spans, then counters, then histograms.  Under the
// simulation the output is byte-identical across same-seed runs; with
// opts.Normalize it is byte-identical for live runs too, up to the
// (asserted-on) set of events.
func (r *Recorder) WriteJSONL(w io.Writer, opts ExportOptions) error {
	events := r.Events()
	spans := AssembleSpans(events)

	evLines := make([]string, 0, len(events))
	for _, ev := range events {
		if opts.Normalize {
			ev.T = 0
			ev.Detail = ""
		}
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		evLines = append(evLines, string(b))
	}
	spanLines := make([]string, 0, len(spans))
	for _, sp := range spans {
		if opts.Normalize {
			sp.Start, sp.End, sp.LatencyNS = 0, 0, 0
		}
		b, err := json.Marshal(struct {
			Span Span `json:"span"`
		}{sp})
		if err != nil {
			return err
		}
		spanLines = append(spanLines, string(b))
	}
	if opts.Normalize {
		sort.Strings(evLines)
		sort.Strings(spanLines)
	}
	for _, line := range evLines {
		if _, err := io.WriteString(w, line+"\n"); err != nil {
			return err
		}
	}
	for _, line := range spanLines {
		if _, err := io.WriteString(w, line+"\n"); err != nil {
			return err
		}
	}
	for _, name := range r.CounterNames() {
		b, err := json.Marshal(struct {
			Counter string `json:"counter"`
			Value   int64  `json:"value"`
		}{name, r.Counter(name)})
		if err != nil {
			return err
		}
		if _, err := io.WriteString(w, string(b)+"\n"); err != nil {
			return err
		}
	}
	for _, name := range r.HistNames() {
		h := r.Hist(name)
		b, err := json.Marshal(struct {
			Hist string `json:"hist"`
			Histogram
		}{name, h})
		if err != nil {
			return err
		}
		if _, err := io.WriteString(w, string(b)+"\n"); err != nil {
			return err
		}
	}
	return nil
}

// JSONL returns WriteJSONL's output as a string.
func (r *Recorder) JSONL(opts ExportOptions) string {
	var sb strings.Builder
	// strings.Builder never returns a write error.
	_ = r.WriteJSONL(&sb, opts)
	return sb.String()
}

// Spans assembles the recorded error events into propagation spans.
func (r *Recorder) Spans() []Span {
	return AssembleSpans(r.Events())
}

// SortedSpanSet renders the spans as one sorted, time-free string per
// span — the canonical form concurrent live-stack tests compare, so
// goroutine arrival order cannot make a correct run flaky.
func (r *Recorder) SortedSpanSet() []string {
	spans := r.Spans()
	out := make([]string, 0, len(spans))
	for _, sp := range spans {
		out = append(out, fmt.Sprintf("job=%d origin=%s %s %s/%s -> %s disp=%s hops=%s",
			sp.Job, sp.Origin, sp.Code, sp.Scope, sp.EKind,
			sp.FinalScope, sp.Disposition, strings.Join(sp.Hops, "; ")))
	}
	sort.Strings(out)
	return out
}
