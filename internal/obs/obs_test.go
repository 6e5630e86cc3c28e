package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestNopTracer(t *testing.T) {
	if Nop.Enabled() {
		t.Fatal("Nop.Enabled() = true")
	}
	// All methods must be safe no-ops.
	Nop.Emit(Event{Comp: "x", Kind: KindError})
	Nop.Count("c", 1)
	Nop.Observe("h", 2)

	if allocs := testing.AllocsPerRun(100, func() {
		Nop.Emit(Event{T: 1, Comp: "schedd", Kind: KindState, Job: 1, Code: "submitted"})
		Nop.Count("counter", 1)
		Nop.Observe("hist", 42)
	}); allocs != 0 {
		t.Errorf("Nop tracer allocates %v per round, want 0", allocs)
	}
}

func TestOr(t *testing.T) {
	if Or(nil) != Nop {
		t.Error("Or(nil) != Nop")
	}
	r := NewRecorder()
	if Or(r) != Tracer(r) {
		t.Error("Or(r) != r")
	}
}

func TestRecorderEventsAndMetrics(t *testing.T) {
	r := NewRecorder()
	if !r.Enabled() {
		t.Fatal("recorder not enabled")
	}
	r.Emit(Event{T: 1, Comp: "a", Kind: KindState, Job: 1, Code: "submitted"})
	r.Emit(Event{T: 2, Comp: "b", Kind: KindError, Job: 1, Code: "X"})
	r.Count("jobs", 1)
	r.Count("jobs", 2)
	r.Observe("lat", 10)
	r.Observe("lat", 4)
	r.Observe("lat", 20)

	evs := r.Events()
	if len(evs) != 2 || evs[0].Comp != "a" || evs[1].Comp != "b" {
		t.Fatalf("Events() = %+v", evs)
	}
	// The copy must be independent of later emits.
	r.Emit(Event{T: 3, Comp: "c", Kind: KindState})
	if len(evs) != 2 {
		t.Fatal("Events() aliases internal storage")
	}

	if got := r.Counter("jobs"); got != 3 {
		t.Errorf("Counter(jobs) = %d, want 3", got)
	}
	if got := r.Counter("missing"); got != 0 {
		t.Errorf("Counter(missing) = %d, want 0", got)
	}
	if names := r.CounterNames(); len(names) != 1 || names[0] != "jobs" {
		t.Errorf("CounterNames() = %v", names)
	}
	h := r.Hist("lat")
	if h.Count != 3 || h.Sum != 34 || h.Min != 4 || h.Max != 20 {
		t.Errorf("Hist(lat) = %+v", h)
	}
	if h := r.Hist("missing"); h.Count != 0 {
		t.Errorf("Hist(missing) = %+v", h)
	}
	if names := r.HistNames(); len(names) != 1 || names[0] != "lat" {
		t.Errorf("HistNames() = %v", names)
	}
}

func TestRecorderConcurrentUse(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Emit(Event{Comp: "w", Kind: KindError, Job: 1, Code: "E"})
				r.Count("n", 1)
				r.Observe("v", int64(i))
			}
		}()
	}
	wg.Wait()
	if got := len(r.Events()); got != 800 {
		t.Errorf("events = %d, want 800", got)
	}
	if got := r.Counter("n"); got != 800 {
		t.Errorf("counter = %d, want 800", got)
	}
	if h := r.Hist("v"); h.Count != 800 || h.Min != 0 || h.Max != 99 {
		t.Errorf("hist = %+v", h)
	}
}

func TestJSONLDeterministicAndNormalized(t *testing.T) {
	build := func(ts ...int64) *Recorder {
		r := NewRecorder()
		r.Emit(Event{T: ts[0], Comp: "jvm", Kind: KindError, Job: 1,
			Code: "JVMStartError", Scope: "virtual-machine", EKind: "escaping"})
		r.Emit(Event{T: ts[1], Comp: "schedd", Kind: KindDisposition, Job: 1,
			Code: "requeue", Scope: "remote-resource"})
		r.Count("bus.sent", 7)
		r.Observe("backoff_ns", 100)
		return r
	}
	a := build(10, 20).JSONL(ExportOptions{})
	b := build(10, 20).JSONL(ExportOptions{})
	if a != b {
		t.Fatalf("same recording, different JSONL:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(a, `"counter":"bus.sent"`) || !strings.Contains(a, `"hist":"backoff_ns"`) {
		t.Errorf("metrics missing from export:\n%s", a)
	}
	if !strings.Contains(a, `"span":`) {
		t.Errorf("span missing from export:\n%s", a)
	}

	// Normalization erases timing, so recordings that differ only in
	// wall-clock instants export identically.
	n1 := build(10, 20).JSONL(ExportOptions{Normalize: true})
	n2 := build(999, 12345).JSONL(ExportOptions{Normalize: true})
	if n1 != n2 {
		t.Errorf("normalized exports differ:\n%s\nvs\n%s", n1, n2)
	}
	if strings.Contains(n1, `"t":10`) {
		t.Errorf("normalized export retains timestamps:\n%s", n1)
	}
}

func TestAssembleSpans(t *testing.T) {
	events := []Event{
		// Job 1: origin at the jvm, hop at the shadow, requeued.
		{T: 100, Comp: "jvm", Kind: KindError, Job: 1, Code: "OutOfMemoryError",
			Scope: "virtual-machine", EKind: "escaping"},
		{T: 150, Comp: "shadow", Kind: KindError, Job: 1, Code: "OutOfMemoryError",
			Scope: "virtual-machine", EKind: "escaping"},
		// Interleaved job 2 clean completion: no span.
		{T: 160, Comp: "schedd", Kind: KindDisposition, Job: 2, Code: "complete"},
		{T: 200, Comp: "schedd", Kind: KindDisposition, Job: 1, Code: "requeue",
			Scope: "virtual-machine"},
		// Job 1 again: second attempt's error, never disposed (still open).
		{T: 300, Comp: "chirp-client", Kind: KindError, Job: 1, Code: "ConnectionLost",
			Scope: "network", EKind: "escaping"},
		// Unrelated state noise must not affect spans.
		{T: 310, Comp: "schedd", Kind: KindState, Job: 1, Code: "requeued"},
	}
	spans := AssembleSpans(events)
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2: %+v", len(spans), spans)
	}
	first := spans[0]
	if first.Job != 1 || first.Origin != "jvm" || first.Code != "OutOfMemoryError" {
		t.Errorf("first span = %+v", first)
	}
	if first.Disposition != "requeue" || len(first.Hops) != 2 {
		t.Errorf("first span = %+v", first)
	}
	if first.Start != 100 || first.End != 200 || first.LatencyNS != 100 {
		t.Errorf("first span timing = %+v", first)
	}
	open := spans[1]
	if open.Origin != "chirp-client" || open.Disposition != "" || open.FinalScope != "network" {
		t.Errorf("open span = %+v", open)
	}
}

func TestSpanWideningAcrossHops(t *testing.T) {
	events := []Event{
		{T: 1, Comp: "shadow", Kind: KindError, Job: 3, Code: "StarterSilent",
			Scope: "network", EKind: "escaping"},
		{T: 2, Comp: "shadow", Kind: KindError, Job: 3, Code: "StarterVanished",
			Scope: "remote-resource", EKind: "escaping"},
		{T: 3, Comp: "schedd", Kind: KindDisposition, Job: 3, Code: "requeue",
			Scope: "remote-resource"},
	}
	spans := AssembleSpans(events)
	if len(spans) != 1 {
		t.Fatalf("spans = %+v", spans)
	}
	sp := spans[0]
	if sp.Scope != "network" || sp.FinalScope != "remote-resource" {
		t.Errorf("widening not visible: origin %s final %s", sp.Scope, sp.FinalScope)
	}
}

func TestSortedSpanSet(t *testing.T) {
	r := NewRecorder()
	// Two jobs erroring in "arrival" order 2 then 1; the sorted set
	// must not depend on that order.
	r.Emit(Event{T: 5, Comp: "chirp-client", Kind: KindError, Job: 2,
		Code: "ConnectionLost", Scope: "network", EKind: "escaping"})
	r.Emit(Event{T: 6, Comp: "chirp-client", Kind: KindError, Job: 1,
		Code: "ConnectionLost", Scope: "network", EKind: "escaping"})
	set := r.SortedSpanSet()
	if len(set) != 2 || !strings.HasPrefix(set[0], "job=1") || !strings.HasPrefix(set[1], "job=2") {
		t.Errorf("SortedSpanSet() = %v", set)
	}
}

func TestTimeline(t *testing.T) {
	r := NewRecorder()
	r.Emit(Event{T: int64(300e9), Comp: "bus", Kind: KindMsg, Job: 1,
		Code: "claim-request", Detail: "schedd->big"})
	r.Emit(Event{T: int64(301e9), Comp: "jvm", Kind: KindError, Job: 1,
		Code: "JVMStartError", Scope: "virtual-machine", EKind: "escaping",
		Detail: "no java", Value: 7})
	r.Emit(Event{T: int64(302e9), Comp: "bus", Kind: KindMsg, Job: 2, Code: "other"})

	tl := r.Timeline(1)
	for _, want := range []string{"5m0s", "claim-request", "schedd->big",
		"JVMStartError", "virtual-machine/escaping", "no java", "value=7"} {
		if !strings.Contains(tl, want) {
			t.Errorf("timeline missing %q:\n%s", want, tl)
		}
	}
	if strings.Contains(tl, "other") {
		t.Errorf("timeline leaked another job's events:\n%s", tl)
	}
	if lines := strings.Count(tl, "\n"); lines != 2 {
		t.Errorf("timeline lines = %d, want 2:\n%s", lines, tl)
	}
}
