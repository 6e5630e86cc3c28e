package sim

import (
	"strings"
	"testing"
	"time"

	"github.com/errscope/grid/internal/obs"
)

func TestBusDelivery(t *testing.T) {
	e := New(1)
	b := NewBus(e, 10*time.Millisecond)
	var got []Message
	var at []Time
	b.Register("b", ActorFunc(func(m Message) {
		got = append(got, m)
		at = append(at, e.Now())
	}))
	b.Send("a", "b", "ping", 42)
	e.Run()
	if len(got) != 1 || got[0].Kind != "ping" || got[0].Body.(int) != 42 {
		t.Fatalf("got %v", got)
	}
	if at[0] != Time(10*time.Millisecond) {
		t.Errorf("delivered at %v", at[0])
	}
	if b.Sent() != 1 || b.Lost() != 0 {
		t.Errorf("sent=%d lost=%d", b.Sent(), b.Lost())
	}
}

func TestBusUnknownDestinationIsLost(t *testing.T) {
	e := New(1)
	b := NewBus(e, time.Millisecond)
	b.Send("a", "ghost", "ping", nil)
	e.Run()
	if b.Lost() != 1 {
		t.Errorf("lost = %d", b.Lost())
	}
}

func TestBusUnregisterDropsInFlight(t *testing.T) {
	e := New(1)
	b := NewBus(e, time.Second)
	delivered := false
	b.Register("b", ActorFunc(func(Message) { delivered = true }))
	b.Send("a", "b", "ping", nil)
	b.Unregister("b")
	e.Run()
	if delivered {
		t.Error("message delivered to unregistered actor")
	}
	if b.Lost() != 1 {
		t.Errorf("lost = %d", b.Lost())
	}
}

func TestBusDropModel(t *testing.T) {
	e := New(1)
	b := NewBus(e, time.Millisecond)
	count := 0
	b.Register("b", ActorFunc(func(Message) { count++ }))
	b.SetFaultFunc(func(m Message) Fault { return Fault{Drop: m.Kind == "lossy"} })
	b.Send("a", "b", "lossy", nil)
	b.Send("a", "b", "solid", nil)
	e.Run()
	if count != 1 {
		t.Errorf("count = %d", count)
	}
	if b.Lost() != 1 || b.Sent() != 2 {
		t.Errorf("sent=%d lost=%d", b.Sent(), b.Lost())
	}
	b.SetFaultFunc(nil)
	b.Send("a", "b", "lossy", nil)
	e.Run()
	if count != 2 {
		t.Errorf("count after reset = %d", count)
	}
}

func TestBusDuplicateRegisterPanics(t *testing.T) {
	e := New(1)
	b := NewBus(e, 0)
	b.Register("x", ActorFunc(func(Message) {}))
	defer func() {
		if recover() == nil {
			t.Error("duplicate register should panic")
		}
	}()
	b.Register("x", ActorFunc(func(Message) {}))
}

// tagged is a job-tagged body, so the bus emits structured events for it.
type tagged int64

func (j tagged) TracedJob() int64 { return int64(j) }

// TestBusTrace: a delivered message is traced once as delivered; a
// fault drop (at send) and an unknown destination (at delivery) are
// each lost exactly once — in Lost, in the bus.lost counter, in the
// trace and as one message-lost event.
func TestBusTrace(t *testing.T) {
	e := New(1)
	b := NewBus(e, 0)
	rec := obs.NewRecorder()
	b.Obs = rec
	b.Register("b", ActorFunc(func(Message) {}))
	var lost []string
	delivered := 0
	b.Trace = func(m Message, ok bool) {
		if ok {
			delivered++
		} else {
			lost = append(lost, m.String())
		}
	}
	b.SetFaultFunc(func(m Message) Fault { return Fault{Drop: m.Kind == "drop"} })
	b.Send("a", "b", "ok", tagged(1))
	b.Send("a", "b", "drop", tagged(2))
	b.Send("a", "ghost", "ok", tagged(3))
	e.Run()
	// The drop is traced at send, the others at delivery.
	want := []string{"a->b drop", "a->ghost ok"}
	if delivered != 1 || strings.Join(lost, ",") != strings.Join(want, ",") {
		t.Errorf("delivered = %d, lost = %v, want 1 and %v", delivered, lost, want)
	}
	if b.Lost() != 2 || rec.Counter("bus.lost") != 2 {
		t.Errorf("Lost() = %d, bus.lost = %d, want 2 each", b.Lost(), rec.Counter("bus.lost"))
	}
	var lostJobs []int64
	for _, ev := range rec.Events() {
		if ev.Kind == obs.KindMsgLost {
			lostJobs = append(lostJobs, ev.Job)
		}
	}
	if len(lostJobs) != 2 || lostJobs[0] != 2 || lostJobs[1] != 3 {
		t.Errorf("message-lost events for jobs %v, want [2 3]", lostJobs)
	}
}

func TestBusLookupAndMessageString(t *testing.T) {
	e := New(1)
	b := NewBus(e, 0)
	b.Register("x", ActorFunc(func(Message) {}))
	if _, ok := b.Lookup("x"); !ok {
		t.Error("Lookup x")
	}
	if _, ok := b.Lookup("y"); ok {
		t.Error("Lookup y")
	}
	m := Message{From: "a", To: "b", Kind: "claim"}
	if m.String() != "a->b claim" {
		t.Errorf("String = %q", m.String())
	}
	if b.Engine() != e {
		t.Error("Engine()")
	}
}

func TestBusFaultFunc(t *testing.T) {
	e := New(1)
	b := NewBus(e, 10*time.Millisecond)
	var got []Message
	var at []Time
	b.Register("b", ActorFunc(func(m Message) {
		got = append(got, m)
		at = append(at, e.Now())
	}))
	b.SetFaultFunc(func(m Message) Fault {
		switch m.Kind {
		case "drop":
			return Fault{Drop: true}
		case "delay":
			return Fault{Delay: 40 * time.Millisecond}
		case "dup":
			return Fault{Duplicates: 2}
		}
		return Fault{}
	})
	b.Send("a", "b", "drop", nil)
	b.Send("a", "b", "delay", nil)
	b.Send("a", "b", "dup", nil)
	b.Send("a", "b", "plain", nil)
	e.Run()
	// drop: lost. delay: at 50ms. dup: three copies at 10ms. plain: at 10ms.
	if b.Lost() != 1 || b.Duplicated() != 2 {
		t.Fatalf("lost=%d duplicated=%d", b.Lost(), b.Duplicated())
	}
	var kinds []string
	for _, m := range got {
		kinds = append(kinds, m.Kind)
	}
	if len(got) != 5 {
		t.Fatalf("deliveries = %v", kinds)
	}
	for i, m := range got {
		switch m.Kind {
		case "delay":
			if at[i] != Time(50*time.Millisecond) {
				t.Errorf("delay delivered at %v", at[i])
			}
		default:
			if at[i] != Time(10*time.Millisecond) {
				t.Errorf("%s delivered at %v", m.Kind, at[i])
			}
		}
	}
	dups := 0
	for _, k := range kinds {
		if k == "dup" {
			dups++
		}
	}
	if dups != 3 {
		t.Errorf("dup copies = %d, want 3", dups)
	}
	// Clearing the fault model restores faithful delivery.
	b.SetFaultFunc(nil)
	b.Send("a", "b", "drop", nil)
	e.Run()
	if got[len(got)-1].Kind != "drop" {
		t.Error("fault model still active after SetFaultFunc(nil)")
	}
}
