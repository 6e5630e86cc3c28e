package obs

import (
	"slices"
	"sync"
	"testing"
)

// since drains the cursor read from index from: the loop every reader
// of EventsSince runs.  No call may hand back more than one segment.
func since(t *testing.T, r *Recorder, from int) []Event {
	t.Helper()
	var out, buf []Event
	for {
		buf = r.EventsSince(from+len(out), buf)
		if len(buf) == 0 {
			return out
		}
		if len(buf) > segSize {
			t.Fatalf("EventsSince(%d) returned %d events, more than a segment", from+len(out), len(buf))
		}
		out = append(out, buf...)
	}
}

// TestEventsSinceMatchesEvents holds the cursor read to the whole-log
// read at the edges of the log and on both sides of every segment
// boundary, for logs that end before, on and after one.
func TestEventsSinceMatchesEvents(t *testing.T) {
	for _, n := range []int{0, 1, segSize - 1, segSize, segSize + 1, 2*segSize + 7} {
		r := NewRecorder()
		for i := 0; i < n; i++ {
			r.Emit(Event{T: int64(i), Comp: "c", Kind: KindState})
		}
		if r.Len() != n {
			t.Fatalf("Len() = %d after %d emits", r.Len(), n)
		}
		all := r.Events()
		if len(all) != n {
			t.Fatalf("Events() holds %d of %d", len(all), n)
		}
		froms := []int{0, 1, n - 1, n}
		for b := segSize; b <= n+1; b += segSize {
			froms = append(froms, b-1, b, b+1)
		}
		for _, from := range froms {
			if from < 0 || from > n {
				continue
			}
			if got := since(t, r, from); !slices.Equal(got, all[from:]) {
				t.Errorf("n=%d: EventsSince from %d: %d events, want Events()[%d:] (%d)",
					n, from, len(got), from, n-from)
			}
		}
		// Off the log on either side: nothing, and no panic.
		for _, from := range []int{-1, -segSize, n + 1, n + segSize} {
			if got := r.EventsSince(from, nil); len(got) != 0 {
				t.Errorf("n=%d: EventsSince(%d) = %d events, want none", n, from, len(got))
			}
		}
	}
}

// TestEventsSinceReusesTheBuffer: a reader that passes its last result
// back pays no allocation in steady state, and what it is handed is
// its own — scribbling on it changes nothing in the record.
func TestEventsSinceReusesTheBuffer(t *testing.T) {
	r := NewRecorder()
	for i := 0; i < segSize+10; i++ {
		r.Emit(Event{T: int64(i)})
	}
	buf := r.EventsSince(0, nil)
	if len(buf) != segSize {
		t.Fatalf("first read: %d events, want the whole first segment", len(buf))
	}
	if allocs := testing.AllocsPerRun(20, func() { buf = r.EventsSince(3, buf) }); allocs != 0 {
		t.Errorf("EventsSince into a large-enough buffer allocates %v times", allocs)
	}
	for i := range buf {
		buf[i].T = -1
	}
	all := r.Events()
	for i := range all {
		all[i].Comp = "scribble"
	}
	for i, ev := range r.Events() {
		if ev.T != int64(i) || ev.Comp != "" {
			t.Fatalf("event %d changed under a reader's copy: %+v", i, ev)
		}
	}
}

// TestCursorReadersRaceEmitters runs cursor readers against concurrent
// emitters (under -race in make check): every reader must see every
// emitter's events in that emitter's order, with none missing.
func TestCursorReadersRaceEmitters(t *testing.T) {
	const emitters, perEmitter, readers = 4, 3 * segSize / 2, 3
	r := NewRecorder()
	var emit, read sync.WaitGroup
	for g := 0; g < emitters; g++ {
		emit.Add(1)
		go func() {
			defer emit.Done()
			for i := 0; i < perEmitter; i++ {
				r.Emit(Event{Job: int64(g), Value: int64(i)})
			}
		}()
	}
	for g := 0; g < readers; g++ {
		read.Add(1)
		go func() {
			defer read.Done()
			var buf []Event
			next := make([]int64, emitters)
			for cursor := 0; cursor < emitters*perEmitter; cursor += len(buf) {
				buf = r.EventsSince(cursor, buf)
				for _, ev := range buf {
					if ev.Value != next[ev.Job] {
						t.Errorf("reader saw emitter %d's event %d, expected %d", ev.Job, ev.Value, next[ev.Job])
						return
					}
					next[ev.Job]++
				}
				_ = r.Len()
			}
		}()
	}
	emit.Wait()
	read.Wait()
	if r.Len() != emitters*perEmitter {
		t.Fatalf("Len() = %d, want %d", r.Len(), emitters*perEmitter)
	}
}
