package daemon

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/errscope/grid/internal/classad"
	"github.com/errscope/grid/internal/jvm"
	"github.com/errscope/grid/internal/sim"
)

// The schedd boxes a job's advertisement once and re-sends the same
// interface value while it would read the same (Schedd.advertiseJob).
// These tests pin when it must not: every input of the body that can
// change has a test that the next message carries the new value, and
// the steady state has a guard that it allocates nothing.

// sentAd is one job advertisement as a negotiator received it.
type sentAd struct {
	to string
	advertiseMsg
}

// adTap is a schedd whose negotiators — the home one and a peer — are
// recording stubs.
type adTap struct {
	eng    *sim.Engine
	bus    *sim.Bus
	schedd *Schedd
	got    []sentAd
}

const tapPeer = "peer-negotiator"

func newAdTap(params Params) *adTap {
	tap := &adTap{eng: sim.New(1)}
	tap.bus = sim.NewBus(tap.eng, 5*time.Millisecond)
	for _, name := range []string{params.matchmaker(), tapPeer} {
		tap.bus.Register(name, sim.ActorFunc(func(m sim.Message) {
			if ad, ok := m.Body.(advertiseMsg); ok {
				tap.got = append(tap.got, sentAd{name, ad})
			}
		}))
	}
	tap.schedd = NewSchedd(tap.bus, params, "schedd")
	return tap
}

func (tap *adTap) submit() *Job {
	id := tap.schedd.Submit(&Job{Owner: "alice", Ad: NewJavaJobAd("alice", 128),
		Program: jvm.WellBehaved(time.Minute)})
	return tap.schedd.Job(id)
}

// next runs the engine for d and returns what arrived meanwhile.
func (tap *adTap) next(d time.Duration) []sentAd {
	tap.got = nil
	tap.eng.RunFor(d)
	return tap.got
}

// last returns the newest advertisement (not withdrawal) of the batch.
func last(t *testing.T, batch []sentAd) sentAd {
	t.Helper()
	for i := len(batch) - 1; i >= 0; i-- {
		if batch[i].Ad != nil {
			return batch[i]
		}
	}
	t.Fatalf("no advertisement among %d messages", len(batch))
	return sentAd{}
}

func avoids(ad *classad.Ad, machine string) bool {
	req, _ := ad.Lookup(classad.AttrRequirements)
	return strings.Contains(req.String(), machine)
}

// TestAdvertisedAdFollowsAvoidance walks the job's effective ad
// through every way avoidance changes it — a machine crosses
// ChronicFailureThreshold, relaxation drops the constraint, the next
// idle spell re-arms it, expireFailures forgets the grudge — and each
// time the first refresh after the change must carry the new ad.
func TestAdvertisedAdFollowsAvoidance(t *testing.T) {
	params := DefaultParams()
	params.ChronicFailureThreshold = 3
	tap := newAdTap(params)
	j := tap.submit()
	s := tap.schedd
	tick := params.AdInterval

	if ad := last(t, tap.next(time.Second)); ad.Ad != j.Ad || ad.Flocked || ad.to != params.matchmaker() {
		t.Fatalf("first advertisement: to %s, flocked %v, own ad %v", ad.to, ad.Flocked, ad.Ad == j.Ad)
	}
	if ad := last(t, tap.next(tick)); ad.Ad != j.Ad {
		t.Fatal("an unchanged job's refresh carries a different ad")
	}

	s.machineFailures["blackhole"] = failureRecord{count: params.ChronicFailureThreshold, last: tap.eng.Now()}
	s.avoidedDirty = true
	if ad := last(t, tap.next(tick)); ad.Ad == j.Ad || !avoids(ad.Ad, "blackhole") {
		t.Fatalf("the refresh after a machine turned chronic does not avoid it: %v", ad.Ad)
	}

	tap.next(params.ChronicRelaxAfter)
	tap.got = nil
	s.handleNoMatch(noMatchMsg{Job: j.ID})
	if !j.avoidanceRelaxed {
		t.Fatal("the job was not relaxed")
	}
	if ad := last(t, tap.next(time.Second)); ad.Ad != j.Ad {
		t.Fatalf("the advertisement after relaxation still carries the constraint: %v", ad.Ad)
	}

	j.avoidanceRelaxed = false // what the next attempt does
	if ad := last(t, tap.next(tick)); !avoids(ad.Ad, "blackhole") {
		t.Fatal("the refresh after avoidance re-armed does not carry the constraint")
	}

	batch := tap.next(params.ChronicRelaxAfter + 2*tick)
	if s.FailureTableSize() != 0 {
		t.Fatal("the grudge did not expire")
	}
	if ad := last(t, batch); ad.Ad != j.Ad {
		t.Fatalf("the refresh after the grudge expired still carries the constraint: %v", ad.Ad)
	}
}

// TestAdvertisedAdFollowsFlock: flocking flips the message's Flocked
// flag and its destination, and the recall flips both back.
func TestAdvertisedAdFollowsFlock(t *testing.T) {
	params := DefaultParams()
	params.Flockd, params.FlockAfter, params.FlockTo = "flockd", time.Minute, []string{tapPeer}
	tap := newAdTap(params)
	j := tap.submit()
	tap.next(time.Second)

	reply := func(m FlockMsg) []sentAd {
		j.flockPending = true
		tap.schedd.handleFlockReply(flockReplyMsg{Job: j.ID, Payload: EncodeFlockMsg(m)})
		return tap.next(time.Second)
	}
	check := func(what string, batch []sentAd, from, to string, flocked bool) {
		t.Helper()
		if len(batch) != 2 {
			t.Fatalf("%s: %d messages, want a withdrawal and an advertisement", what, len(batch))
		}
		if w := batch[0]; w.Ad != nil || w.to != from || w.Flocked == flocked {
			t.Errorf("%s: withdrawal to %s flocked %v ad %v", what, w.to, w.Flocked, w.Ad)
		}
		if a := batch[1]; a.Ad != j.Ad || a.to != to || a.Flocked != flocked {
			t.Errorf("%s: advertisement to %s flocked %v own ad %v", what, a.to, a.Flocked, a.Ad == j.Ad)
		}
	}
	home := params.matchmaker()
	check("grant", reply(FlockMsg{Op: FlockGrant, Job: j.ID, Level: 1, Negotiator: tapPeer}), home, tapPeer, true)
	if ad := last(t, tap.next(params.AdInterval)); ad.to != tapPeer || !ad.Flocked {
		t.Errorf("refresh while flocked: to %s flocked %v", ad.to, ad.Flocked)
	}
	check("recall", reply(FlockMsg{Op: FlockDeny, Job: j.ID, Reason: "peer died"}), tapPeer, home, false)
	if ad := last(t, tap.next(params.AdInterval)); ad.to != home || ad.Flocked {
		t.Errorf("refresh after the recall: to %s flocked %v", ad.to, ad.Flocked)
	}
}

// TestAdvertisedAdRebuiltAfterRecover: recovery rebuilds the Job
// values, so the first advertisement afterwards carries the rebuilt
// job's ad, never the body cached on the value the crash discarded.
func TestAdvertisedAdRebuiltAfterRecover(t *testing.T) {
	tap := newAdTap(DefaultParams())
	old := tap.submit()
	tap.next(time.Second)
	tap.schedd.Crash()
	if err := tap.schedd.Recover(nil); err != nil {
		t.Fatal(err)
	}
	j := tap.schedd.Job(old.ID)
	if j == old || j.Ad == old.Ad {
		t.Fatal("recovery kept the old Job value; this test assumes it rebuilds")
	}
	if sent, ok := j.adBody.(advertiseMsg); ok && sent.Ad != j.Ad {
		t.Fatal("the recovered job starts with a body cached for another ad")
	}
	if ad := last(t, tap.next(time.Second)); ad.Ad != j.Ad {
		t.Fatal("the advertisement after recovery carries the discarded job's ad")
	}
}

// TestMutatedAdvertisementDoesNotLeak: a fault that replaces one
// advertisement's body in transit corrupts that delivery only; the
// job's next send carries the schedd's own, unmutated body.
func TestMutatedAdvertisementDoesNotLeak(t *testing.T) {
	params := DefaultParams()
	tap := newAdTap(params)
	j := tap.submit()
	tap.next(time.Second)

	forged := classad.NewAd()
	armed := true
	tap.bus.SetFaultFunc(func(m sim.Message) sim.Fault {
		if !armed || m.Kind != kindAdvertise {
			return sim.Fault{}
		}
		armed = false
		return sim.Fault{Mutate: func(body any) any {
			ad := body.(advertiseMsg)
			ad.Ad, ad.Flocked = forged, true
			return ad
		}}
	})
	if ad := last(t, tap.next(params.AdInterval)); ad.Ad != forged || !ad.Flocked {
		t.Fatal("the fault did not mutate the delivery; the test proves nothing")
	}
	if ad := last(t, tap.next(params.AdInterval)); ad.Ad != j.Ad || ad.Flocked {
		t.Fatalf("the send after a mutated delivery carries the mutation: flocked %v, own ad %v", ad.Flocked, ad.Ad == j.Ad)
	}
}

// TestIdleRefreshAllocatesNothing is the clock-free guard on the
// refresh path — schedd to bus to matchmaker, most of a deep queue's
// messages: re-advertising n unchanged idle jobs and delivering the n
// messages allocates nothing, at n and at 2n.  Boxing the body per
// message was one allocation each.
func TestIdleRefreshAllocatesNothing(t *testing.T) {
	for _, n := range []int{512, 1024} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			params := DefaultParams()
			eng, _, schedd, mm, _ := testPool(t, params)
			for i := 0; i < n; i++ {
				schedd.Submit(&Job{Owner: "alice", Ad: NewJavaJobAd("alice", 128),
					Program: jvm.WellBehaved(time.Minute)})
			}
			eng.RunFor(time.Second)
			if mm.PendingJobs() != n {
				t.Fatalf("the matchmaker holds %d of %d requests", mm.PendingJobs(), n)
			}
			sent := eng.Processed()
			// Each round is n messages sent and delivered; the rounds stay
			// well inside one NegotiationInterval and one AdInterval, so
			// nothing else runs.
			allocs := testing.AllocsPerRun(5, func() {
				schedd.advertiseIdle()
				eng.RunFor(10 * time.Millisecond)
			})
			if got := eng.Processed() - sent; got != 6*uint64(n) {
				t.Fatalf("%d events over six rounds, want %d deliveries", got, 6*n)
			}
			if allocs > 0 {
				t.Errorf("a refresh round of %d jobs allocates %.0f objects (%.2f per message), want 0",
					n, allocs, allocs/float64(n))
			}
		})
	}
}
