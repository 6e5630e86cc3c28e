package sim

import (
	"testing"
	"unsafe"
)

// The queue's cost guards count heads and allocations, never time, so
// they hold on any host.

// TestEventStaysInSizeClass pins the struct at 64 bytes: the chain
// links must not push every pending event of a churned pool — hundreds
// of thousands of singleton instants — into the next size class.
func TestEventStaysInSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(event{}); size > 64 {
		t.Fatalf("event is %d bytes, the limit is 64", size)
	}
}

// TestOneInstantIsOneHead: events scheduled for one instant from one
// callback share a head, so the heap does not grow with the burst, and
// every pop of the burst finds the heap that small.
func TestOneInstantIsOneHead(t *testing.T) {
	const n = 10000
	eng := New(1)
	eng.At(2000, func() {}) // a later instant, so the heap is not trivially empty
	fired := 0
	eng.At(1, func() {
		for i := 0; i < n; i++ {
			eng.At(1000, func() {
				fired++
				if len(eng.events) > 2 {
					t.Fatalf("%d heads while the instant drains, want at most 2", len(eng.events))
				}
			})
		}
	})
	eng.Step()
	if heads := len(eng.events); heads != 2 {
		t.Fatalf("%d events on one instant made %d heads, want 2 (the instant and the later one)", n, heads)
	}
	if eng.Pending() != n+1 {
		t.Fatalf("Pending() = %d, want %d", eng.Pending(), n+1)
	}
	eng.RunUntil(1000)
	if fired != n || eng.Pending() != 1 {
		t.Fatalf("fired %d of %d, %d pending", fired, n, eng.Pending())
	}
}

// TestSingletonInstantsAllocateOnlyTheEvent is the guard for queues of
// far-apart timers, such as a pool's per-machine tickers, timeouts and
// churn transitions: an instant with one event costs the event struct
// and its share of the heap slice's growth — no bucket, no map entry,
// nothing per instant.
func TestSingletonInstantsAllocateOnlyTheEvent(t *testing.T) {
	const n = 10000
	fn := func() {}
	allocs := testing.AllocsPerRun(3, func() {
		eng := New(1)
		for i := 0; i < n; i++ {
			eng.At(Time(i), fn)
		}
	})
	// n structs, the engine with its maps, and the doublings of one slice.
	if limit := float64(n + 64); allocs > limit {
		t.Fatalf("%d singleton instants allocated %.0f objects, want at most %.0f", n, allocs, limit)
	}
}

// TestInstantCostIsLinear: scheduling and firing an instant of 2n
// events allocates twice what n do, not more, and nothing at all once
// the free list is warm.
func TestInstantCostIsLinear(t *testing.T) {
	fn := func() {}
	// instant returns a function that schedules and fires one instant
	// of n events on eng; the burst closure is made once, not per run.
	instant := func(eng *Engine, n int) func() {
		burst := func() {
			for i := 0; i < n; i++ {
				eng.After(1, fn)
			}
		}
		return func() {
			eng.After(1, burst)
			for eng.Step() {
				if len(eng.events) > 1 {
					t.Fatalf("%d heads for one instant", len(eng.events))
				}
			}
		}
	}
	cold := func(n int) float64 {
		return testing.AllocsPerRun(3, func() { instant(New(1), n)() })
	}
	const n = 5000
	if a, b := cold(n), cold(2*n); b > 2*a+16 {
		t.Errorf("a cold instant of %d events allocates %.0f, of %d events %.0f: more than double", n, a, 2*n, b)
	}
	run := instant(New(1), 2*n)
	run() // warm the free list
	if warm := testing.AllocsPerRun(3, run); warm > 0 {
		t.Errorf("a warm instant of %d events allocates %.0f objects, want 0", 2*n, warm)
	}
}
