package monitor

import (
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

	"github.com/errscope/grid/internal/obs"
	"github.com/errscope/grid/internal/pool"
	"github.com/errscope/grid/internal/sim"
)

// stoppedClock is the Clock of a monitor with no pool behind it.
type stoppedClock struct{}

func (stoppedClock) Now() sim.Time { return 0 }

// lineCounter is a Sink that keeps nothing but what a test needs to
// judge the stream: how many records of each kind, and the last line.
type lineCounter struct {
	events, snaps int
	last          string
}

func (c *lineCounter) Deliver(cmd byte, line string) error {
	if cmd == cmdEvent {
		c.events++
		c.last = line
	} else {
		c.snaps++
	}
	return nil
}

func (c *lineCounter) Close() {}

func emitN(rec *obs.Recorder, n int) {
	for i := 0; i < n; i++ {
		rec.Emit(obs.Event{T: 60e9, Comp: "schedd", Kind: obs.KindState, Job: int64(rec.Len()), Code: "executing"})
	}
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// caughtUp builds a monitor over a log of the given length with two
// collectors that have already been pumped up to date.
func caughtUp(t *testing.T, history int) (*Monitor, *obs.Recorder, []*Collector) {
	t.Helper()
	rec := obs.NewRecorder()
	emitN(rec, history)
	mon := New(Config{Name: "mon", Clock: stoppedClock{}, Recorder: rec})
	cols := []*Collector{NewCollector(), NewCollector()}
	for _, c := range cols {
		if err := mon.Subscribe(c, 0); err != nil {
			t.Fatal(err)
		}
	}
	mon.Pump()
	for _, c := range cols {
		if got := c.Recorder().Len(); got != history {
			t.Fatalf("collector holds %d of %d events after the first pump", got, history)
		}
	}
	return mon, rec, cols
}

// TestPumpCostIsTheNewEvents is the quadratic-pump guard, and it needs
// no clock: what one pump allocates must depend on what is new since
// the last one, not on how long the log has grown.  (The pump it
// replaced copied the whole log every time: 24 MB here.)  Then a late
// subscriber joins the long log from index 0 and must be caught up in
// one pump that never holds more than a segment of it.
func TestPumpCostIsTheNewEvents(t *testing.T) {
	const long, short, fresh = 200_000, 1_000, 100
	pumpAlloc := func(history int) (uint64, *Monitor, *obs.Recorder) {
		mon, rec, cols := caughtUp(t, history)
		emitN(rec, fresh)
		before := totalAlloc()
		mon.Pump()
		delta := totalAlloc() - before
		for _, c := range cols {
			if got := c.Recorder().Len(); got != history+fresh {
				t.Fatalf("collector holds %d events, want %d", got, history+fresh)
			}
		}
		return delta, mon, rec
	}
	small, _, _ := pumpAlloc(short)
	big, mon, rec := pumpAlloc(long)
	// The slack covers a collector opening a new recorder segment in
	// one run and not in the other.
	const slack = 512 << 10
	if big > small+slack {
		t.Errorf("a pump of %d new events allocates %d B over a %d-event log but %d B over a %d-event one",
			fresh, big, long, small, short)
	}

	// What a line costs to allocate, measured rather than assumed.
	before := totalAlloc()
	for i := 0; i < 1000; i++ {
		_ = EncodeEvent(obs.Event{T: 60e9, Comp: "schedd", Kind: obs.KindState, Job: long, Code: "executing"})
	}
	perLine := (totalAlloc() - before) / 1000

	late := &lineCounter{}
	if err := mon.Subscribe(late, 0); err != nil {
		t.Fatal(err)
	}
	before = totalAlloc()
	mon.Pump()
	delta := totalAlloc() - before
	if late.events != rec.Len() {
		t.Fatalf("the late subscriber has %d of %d events after one pump", late.events, rec.Len())
	}
	if want := EncodeEvent(rec.Events()[rec.Len()-1]); late.last != want {
		t.Fatalf("the late subscriber's last record is %q, want %q", late.last, want)
	}
	// Everything the catch-up allocates is the lines themselves and the
	// pump's one-segment read buffer — not a copy of the backlog.
	if lines := perLine * uint64(late.events); delta > lines+slack {
		t.Errorf("catching up on %d events allocated %d B: %d B of lines and %d B besides",
			late.events, delta, lines, delta-lines)
	}
	if c := cap(mon.events); c > 4096 {
		t.Errorf("the pump's read buffer grew to %d events", c)
	}
}

// TestPumpEncodesOncePerEvent: subscribers standing at the same
// cursor are handed the very same line, not equal copies of it —
// sharing is safe because a Go string is immutable — while each still
// gets exactly its own slice of the log, whatever cursor it joined at,
// and a cursor beyond the log waits for the log to reach it.
func TestPumpEncodesOncePerEvent(t *testing.T) {
	rec := obs.NewRecorder()
	emitN(rec, 10)
	snaps := 0
	mon := New(Config{Name: "mon", Clock: stoppedClock{}, Recorder: rec,
		Metrics: func() Snapshot { snaps++; return Snapshot{T: int64(snaps)} }})
	a, b, mid, future := &lineCounter{}, &lineCounter{}, NewCollector(), NewCollector()
	dying := FailAfter(3)
	for sink, from := range map[Sink]int64{a: 0, b: 0, mid: 4, future: 12, dying: 0} {
		if err := mon.Subscribe(sink, from); err != nil {
			t.Fatal(err)
		}
	}
	mon.Pump()
	if a.events != 10 || b.events != 10 || a.snaps != 1 || b.snaps != 1 {
		t.Fatalf("from-0 subscribers got %d+%d and %d+%d records, want 10+1 each", a.events, a.snaps, b.events, b.snaps)
	}
	if unsafe.StringData(a.last) != unsafe.StringData(b.last) {
		t.Error("two subscribers at one cursor were handed separately encoded lines")
	}
	if got := mid.Events(); !slices.Equal(got, rec.Events()[4:]) {
		t.Errorf("the from-4 subscriber holds %d events, want the last 6", len(got))
	}
	if n := future.Recorder().Len() + len(future.Snapshots()); n != 0 {
		t.Errorf("a subscriber waiting for index 12 of a 10-event log was sent %d records", n)
	}
	if !dying.Closed() || mon.Dropped() != 1 || mon.Subscribers() != 4 {
		t.Errorf("dying sink closed=%v, dropped=%d, subscribers=%d; want true, 1, 4",
			dying.Closed(), mon.Dropped(), mon.Subscribers())
	}
	// 10+1 twice, 6+1, and the 3 the dying sink took.
	if got := mon.Delivered(); got != 32 {
		t.Errorf("delivered = %d, want 32", got)
	}
	if snaps != 1 {
		t.Errorf("the snapshot was built %d times in one pump", snaps)
	}

	emitN(rec, 5)
	mon.Pump()
	if got := future.Events(); !slices.Equal(got, rec.Events()[12:]) || len(future.Snapshots()) != 1 {
		t.Errorf("once the log passed index 12 the waiting subscriber holds %d events and %d snapshots, want 3 and 1",
			len(got), len(future.Snapshots()))
	}
	if a.events != 15 || mid.Recorder().Len() != 11 {
		t.Errorf("second pump: %d and %d events, want 15 and 11", a.events, mid.Recorder().Len())
	}
}

// TestNilRecorderStreamsSnapshotsOnly: Config documents only Clock as
// required, so a monitor with no recorder is a metrics-only stream —
// it used to panic on the first pump that had a subscriber.
func TestNilRecorderStreamsSnapshotsOnly(t *testing.T) {
	n := int64(0)
	mon := New(Config{Name: "mon", Clock: stoppedClock{},
		Metrics: func() Snapshot { n++; return Snapshot{T: n, Jobs: 7} }})
	col := NewCollector()
	if err := mon.Subscribe(col, 0); err != nil {
		t.Fatal(err)
	}
	mon.Pump()
	mon.Pump()
	snaps := col.Snapshots()
	if len(snaps) != 2 || snaps[1] != (Snapshot{T: 2, Jobs: 7}) || len(col.Events()) != 0 {
		t.Fatalf("collector holds %d events and snapshots %+v", len(col.Events()), snaps)
	}
	if mon.Delivered() != 2 || mon.Dropped() != 0 {
		t.Errorf("delivered=%d dropped=%d, want 2 and 0", mon.Delivered(), mon.Dropped())
	}
	// With neither a recorder nor metrics there is nothing to send.
	bare := New(Config{Name: "bare", Clock: stoppedClock{}})
	if err := bare.Subscribe(NewCollector(), 0); err != nil {
		t.Fatal(err)
	}
	bare.Pump()
	if bare.Delivered() != 0 {
		t.Errorf("a monitor with nothing to stream delivered %d records", bare.Delivered())
	}
}

// TestPumpScalesLinearly runs the bench's pool-ops shape (a recorded
// pool, two collectors, a pump every virtual minute) at one size and
// at twice the jobs.  What the pumps allocate per recorded event must
// stay constant — it doubles when a pump copies the log — and the
// pump time is logged beside it for a reader with a quiet machine.
func TestPumpScalesLinearly(t *testing.T) {
	if testing.Short() {
		t.Skip("two pool runs")
	}
	run := func(jobs int) (perEvent float64, pumping time.Duration) {
		p, rec := testPool(42, pool.UniformMachines(64, 2048), jobs)
		mon := Attach(p, rec, "ops")
		for i := 0; i < 2; i++ {
			if err := mon.Subscribe(NewCollector(), 0); err != nil {
				t.Fatal(err)
			}
		}
		var pumped uint64
		for !p.AllTerminal() {
			p.Engine.RunFor(time.Minute)
			before, start := totalAlloc(), time.Now()
			mon.Pump()
			pumping += time.Since(start)
			pumped += totalAlloc() - before
		}
		return float64(pumped) / float64(rec.Len()), pumping
	}
	one, t1 := run(256)
	two, t2 := run(512)
	t.Logf("pumps at 256 jobs: %.0f B per recorded event, %v; at 512 jobs: %.0f B, %v (%.2fx the time)",
		one, t1, two, t2, float64(t2)/float64(t1))
	if two > 1.3*one {
		t.Errorf("doubling the jobs took the pump from %.0f to %.0f B per event", one, two)
	}
}
