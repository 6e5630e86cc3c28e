package daemon

import (
	"errors"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/errscope/grid/internal/jvm"
	"github.com/errscope/grid/internal/scope"
	"github.com/errscope/grid/internal/sim"
	"github.com/errscope/grid/internal/vfs"
)

// shadowClock is a Runtime over the simulator's bus that counts the
// timers armed by shadow code — callbacks defined in shadow.go — that
// are still queued: armed, and neither fired nor cancelled.  It
// forwards the bus's methods instead of embedding the bus, whose
// Scoped method would let affinity bypass the count.
type shadowClock struct {
	bus    *sim.Bus
	queued int
}

func (c *shadowClock) Send(from, to, kind string, body any) { c.bus.Send(from, to, kind, body) }
func (c *shadowClock) Register(name string, a sim.Actor)    { c.bus.Register(name, a) }
func (c *shadowClock) Unregister(name string)               { c.bus.Unregister(name) }
func (c *shadowClock) Now() sim.Time                        { return c.bus.Now() }

func armedByShadow(fn func()) bool {
	f := runtime.FuncForPC(reflect.ValueOf(fn).Pointer())
	file, _ := f.FileLine(f.Entry())
	return filepath.Base(file) == "shadow.go"
}

// track counts one shadow timer in and returns the call that counts it
// out, once.
func (c *shadowClock) track() (leave func()) {
	c.queued++
	queued := true
	return func() {
		if queued {
			queued = false
			c.queued--
		}
	}
}

func (c *shadowClock) After(d time.Duration, fn func()) (cancel func()) {
	if !armedByShadow(fn) {
		return c.bus.After(d, fn)
	}
	leave := c.track()
	stop := c.bus.After(d, func() { leave(); fn() })
	return func() { leave(); stop() }
}

func (c *shadowClock) Every(period time.Duration, fn func()) (stop func()) {
	if !armedByShadow(fn) {
		return c.bus.Every(period, fn)
	}
	leave := c.track()
	halt := c.bus.Every(period, fn)
	return func() { leave(); halt() }
}

// arrival is one message a stand-in peer received.
type arrival struct {
	at  sim.Time
	msg sim.Message
}

// shadowRig is one shadow on its own engine, between stand-in peers.
type shadowRig struct {
	eng   *sim.Engine
	clock *shadowClock
	sh    *Shadow
	got   []arrival // what the peers received
}

const (
	rigLatency = 5 * time.Millisecond
	rigShadow  = "shadow:schedd:1"
	rigStarter = "starter:m1:1"
)

// newShadowRig builds the shadow at time zero.  With staged false the
// executable is missing from the submit file system, so the first
// fetch fails at file scope.
func newShadowRig(t *testing.T, staged bool) *shadowRig {
	t.Helper()
	params := DefaultParams()
	params.ResultTimeout = 30 * time.Minute
	params.LeaseInterval = 2 * time.Minute
	eng := sim.New(1)
	bus := sim.NewBus(eng, rigLatency)
	r := &shadowRig{eng: eng, clock: &shadowClock{bus: bus}}
	for _, name := range []string{"schedd", "m1", rigStarter} {
		bus.Register(name, rigPeer{r})
	}
	fs := vfs.New()
	if staged {
		if err := fs.WriteFile("/home/alice/Main.class", []byte("\xca\xfe\xba\xbe")); err != nil {
			t.Fatal(err)
		}
	}
	job := &Job{ID: 1, Universe: "java", Program: jvm.WellBehaved(time.Hour),
		Executable: "/home/alice/Main.class", Ad: NewJavaJobAd("alice", 128)}
	r.sh = newShadow(r.clock, params, rigShadow, "schedd", job, fs, "m1")
	return r
}

// rigPeer stands in for the schedd, the machine and the starter
// around a lone shadow: it arms nothing and records what it is sent.
type rigPeer struct{ r *shadowRig }

func (p rigPeer) Receive(m sim.Message) {
	p.r.got = append(p.r.got, arrival{at: p.r.eng.Now(), msg: m})
}

// at runs the engine to t and then hands body, from the starter, to
// the shadow.
func (r *shadowRig) at(t time.Duration, kind string, body any) {
	r.eng.RunUntil(sim.Time(t))
	r.sh.Receive(sim.Message{From: rigStarter, To: rigShadow, Kind: kind, Body: body})
}

// final delivers what is in flight and returns the job-final report
// and the instant the shadow sent it, failing unless exactly one
// arrived.
func (r *shadowRig) final(t *testing.T) (jobFinalMsg, sim.Time) {
	t.Helper()
	r.eng.RunFor(rigLatency)
	var out []arrival
	for _, a := range r.got {
		if a.msg.Kind == kindJobFinal {
			out = append(out, a)
		}
	}
	if len(out) != 1 {
		t.Fatalf("%d job-final reports, want 1", len(out))
	}
	return out[0].msg.Body.(jobFinalMsg), out[0].at - sim.Time(rigLatency)
}

// retired checks that the shadow left no timer of its own behind, and
// — once its last messages are delivered — nothing in the engine at
// all: the peers arm nothing.
func (r *shadowRig) retired(t *testing.T) {
	t.Helper()
	if r.clock.queued != 0 {
		t.Errorf("the retired shadow left %d timers queued", r.clock.queued)
	}
	r.eng.RunFor(time.Second)
	if n := r.eng.Pending(); n != 0 {
		t.Errorf("engine holds %d events after the shadow retired", n)
	}
}

// silentAt runs the engine to the instant a timeout should declare
// the starter silent and checks that the shadow's report left at
// exactly that instant, a lost contact that began as StarterSilent.
// The engine stops there, so whatever the shadow armed for later must
// still be cancelled by its retirement.
func (r *shadowRig) silentAt(t *testing.T, when time.Duration) {
	t.Helper()
	r.eng.RunUntil(sim.Time(when))
	rep, sent := r.final(t)
	if !errors.Is(rep.LostContact, &scope.Error{Code: "StarterSilent"}) {
		t.Fatalf("lost contact = %v, want a widened StarterSilent", rep.LostContact)
	}
	if sent != sim.Time(when) {
		t.Errorf("lost contact at %v, want %v", sent, when)
	}
}

// TestShadowRetiresItsTimers: the activation timeout, every result
// timeout and the lease ticker die with the shadow, however it ends —
// by result, by fetch error, by lost contact, or killed with its
// schedd — while a silent starter still costs the attempt at exactly
// ResultTimeout, on the activation and on the result path.
func TestShadowRetiresItsTimers(t *testing.T) {
	const rt = 30 * time.Minute

	t.Run("result", func(t *testing.T) {
		r := newShadowRig(t, true)
		r.at(time.Second, kindFetchJob, fetchJobMsg{Starter: rigStarter})
		if r.clock.queued != 3 {
			t.Fatalf("%d shadow timers queued, want lease, activation and result", r.clock.queued)
		}
		r.at(time.Minute, kindJobResult, jobResultMsg{Job: 1, CPU: time.Minute})
		if rep, _ := r.final(t); rep.LostContact != nil || rep.FetchError != nil {
			t.Fatalf("report = %+v", rep)
		}
		r.retired(t)
	})

	t.Run("fetch-error", func(t *testing.T) {
		r := newShadowRig(t, false)
		r.at(time.Second, kindFetchJob, fetchJobMsg{Starter: rigStarter})
		if rep, _ := r.final(t); rep.FetchError == nil {
			t.Fatalf("report = %+v, want a fetch error", rep)
		}
		r.retired(t)
	})

	t.Run("silent-activation", func(t *testing.T) {
		r := newShadowRig(t, true)
		r.silentAt(t, rt)
		r.retired(t)
	})

	t.Run("silent-result", func(t *testing.T) {
		r := newShadowRig(t, true)
		r.at(time.Minute, kindFetchJob, fetchJobMsg{Starter: rigStarter})
		r.silentAt(t, time.Minute+rt)
		r.retired(t)
	})

	t.Run("duplicated-fetch", func(t *testing.T) {
		r := newShadowRig(t, true)
		r.at(time.Minute, kindFetchJob, fetchJobMsg{Starter: rigStarter})
		r.at(2*time.Minute, kindFetchJob, fetchJobMsg{Starter: rigStarter})
		if r.clock.queued != 4 {
			t.Fatalf("%d shadow timers queued, want lease, activation and two result timeouts", r.clock.queued)
		}
		// The first fetch's timeout fires; the second's is still queued.
		r.silentAt(t, time.Minute+rt)
		r.retired(t)
	})

	t.Run("duplicated-fetch-result", func(t *testing.T) {
		r := newShadowRig(t, true)
		r.at(time.Minute, kindFetchJob, fetchJobMsg{Starter: rigStarter})
		r.at(2*time.Minute, kindFetchJob, fetchJobMsg{Starter: rigStarter})
		r.at(3*time.Minute, kindJobResult, jobResultMsg{Job: 1, CPU: time.Minute})
		if rep, _ := r.final(t); rep.LostContact != nil {
			t.Fatalf("report = %+v", rep)
		}
		r.retired(t)
	})

	t.Run("schedd-crash", func(t *testing.T) {
		params := DefaultParams()
		params.ResultTimeout = rt
		eng := sim.New(1)
		bus := sim.NewBus(eng, rigLatency)
		clock := &shadowClock{bus: bus}
		NewMatchmaker(bus, params)
		schedd := NewSchedd(clock, params, "schedd")
		NewStartd(bus, params, goodMachine("m1"))
		submitJavaJob(schedd, jvm.WellBehaved(time.Hour))
		eng.RunFor(10 * time.Minute)
		if len(schedd.shadows) != 1 || clock.queued != 3 {
			t.Fatalf("%d shadows, %d shadow timers queued; want one running job's lease, activation and result",
				len(schedd.shadows), clock.queued)
		}
		schedd.Crash()
		if clock.queued != 0 {
			t.Errorf("the killed shadow left %d timers queued", clock.queued)
		}
	})
}
