package sim

import (
	"testing"
	"time"
)

// TestEventPoolingReusesStructs checks that fired events return to the
// free list and are handed out again, so a steady-state simulation
// recycles a bounded set of event structs.
func TestEventPoolingReusesStructs(t *testing.T) {
	eng := New(1)
	t1 := eng.After(time.Millisecond, func() {})
	ev1 := t1.ev
	if !eng.Step() {
		t.Fatal("no event to step")
	}
	t2 := eng.After(time.Millisecond, func() {})
	if t2.ev != ev1 {
		t.Error("second schedule should reuse the fired event struct")
	}
	if t2.gen == t1.gen {
		t.Error("reused struct must carry a new generation")
	}
}

// TestStaleTimerCannotCancelSuccessor pins the generation guard: a
// handle to a fired event must not cancel the event that recycled its
// struct.
func TestStaleTimerCannotCancelSuccessor(t *testing.T) {
	eng := New(1)
	fired := 0
	t1 := eng.After(time.Millisecond, func() { fired++ })
	eng.Step()
	t2 := eng.After(time.Millisecond, func() { fired++ })
	if t1.Cancel() {
		t.Error("stale handle reported a successful cancel")
	}
	if eng.Pending() != 1 {
		t.Fatal("stale cancel removed the successor event")
	}
	eng.Run()
	if fired != 2 {
		t.Fatalf("fired %d events, want 2", fired)
	}
	if t2.Cancel() {
		t.Error("cancel after firing should report false")
	}
}

// TestCancelRecyclesEvent checks that a cancelled event's struct is
// reused and that double cancel is a no-op.
func TestCancelRecyclesEvent(t *testing.T) {
	eng := New(1)
	tm := eng.After(time.Second, func() { t.Error("cancelled event fired") })
	ev := tm.ev
	if !tm.Cancel() {
		t.Fatal("first cancel should succeed")
	}
	if tm.Cancel() {
		t.Error("second cancel should report false")
	}
	t2 := eng.After(time.Millisecond, func() {})
	if t2.ev != ev {
		t.Error("cancelled event struct should be recycled")
	}
	eng.Run()
}

// TestFreeListBounded pins the cap on the event free list: after a
// scheduling burst far above maxFreeEvents drains, the pool holds at
// most maxFreeEvents structs — the burst's high-water mark returns to
// the garbage collector instead of staying pinned for the run.
func TestFreeListBounded(t *testing.T) {
	eng := New(1)
	const burst = 4 * maxFreeEvents
	for i := 0; i < burst; i++ {
		eng.At(Time(i), func() {})
	}
	eng.Run()
	if got := len(eng.free); got > maxFreeEvents {
		t.Errorf("free list holds %d events after a %d-event burst, cap is %d",
			got, burst, maxFreeEvents)
	}
	// The cap must not break recycling: the next schedule still draws
	// from the pool.
	tm := eng.After(time.Millisecond, func() {})
	if tm.ev == nil || tm.ev.index < 0 {
		t.Fatal("schedule after burst did not produce a live event")
	}
	eng.Run()
}

// TestSteadyStateScheduleAllocFree pins the free list's purpose: a
// schedule-fire cycle in steady state touches no allocator.
func TestSteadyStateScheduleAllocFree(t *testing.T) {
	eng := New(1)
	var tick func()
	tick = func() {}
	eng.After(time.Millisecond, tick)
	eng.Step() // warm the free list
	allocs := testing.AllocsPerRun(500, func() {
		eng.After(time.Millisecond, tick)
		eng.Step()
	})
	if allocs > 0 {
		t.Errorf("schedule+fire allocated %.1f objects per run, want 0", allocs)
	}
}

// TestDeliveryFreeListBounded is TestFreeListBounded for the bus: a
// burst of messages twice the cap drains into a pool no larger than the
// cap, and a send-deliver cycle afterwards still allocates nothing.
func TestDeliveryFreeListBounded(t *testing.T) {
	eng := New(1)
	bus := NewBus(eng, time.Millisecond)
	received := 0
	bus.Register("sink", ActorFunc(func(Message) { received++ }))
	const burst = 2 * maxFreeEvents
	for i := 0; i < burst; i++ {
		bus.Send("src", "sink", "k", nil)
	}
	eng.Run()
	if received != burst {
		t.Fatalf("delivered %d of %d", received, burst)
	}
	if got := len(bus.freeDeliveries); got > maxFreeEvents {
		t.Errorf("the bus pools %d delivery records after a %d-message burst, cap is %d",
			got, burst, maxFreeEvents)
	}
	allocs := testing.AllocsPerRun(500, func() {
		bus.Send("src", "sink", "k", nil)
		eng.Step()
	})
	if allocs > 0 {
		t.Errorf("send+deliver allocated %.1f objects per run after the burst, want 0", allocs)
	}
}
