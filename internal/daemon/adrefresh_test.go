package daemon

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/errscope/grid/internal/classad"
	"github.com/errscope/grid/internal/jvm"
	"github.com/errscope/grid/internal/sim"
)

// The schedd sends its job advertisements as runs (noticeRun): the
// idle refresh gathers one run per stretch of idle jobs with the same
// negotiator, and every other advertisement or withdrawal is a run of
// one.  These tests pin what
// the runs carry — every input of an entry that can change has a test
// that the next run carries the new value — the order rules that make
// a run exact, and the refresh's cost: one message per negotiator.

// sentAd is one entry of a run of job advertisements as a negotiator
// received it.
type sentAd struct {
	to string
	jobAd
}

// adTap is a schedd whose negotiators — the home one and a peer — and
// flock coordinator are recording stubs.
type adTap struct {
	eng    *sim.Engine
	bus    *sim.Bus
	schedd *Schedd
	got    []sentAd
	// log renders every message the stubs received, in arrival order:
	// a run as its destination and entries (wN withdraws job N), a
	// flock query as "flockd query N".
	log []string
}

const tapPeer = "peer-negotiator"

func newAdTap(params Params) *adTap {
	tap := &adTap{eng: sim.New(1)}
	tap.bus = sim.NewBus(tap.eng, 5*time.Millisecond)
	for _, name := range []string{params.matchmaker(), tapPeer} {
		tap.bus.Register(name, sim.ActorFunc(func(m sim.Message) {
			run, ok := m.Body.(jobAdsMsg)
			if !ok {
				return
			}
			var entries []string
			for _, e := range run.Ads {
				tap.got = append(tap.got, sentAd{name, e})
				if e.Ad == nil {
					entries = append(entries, fmt.Sprintf("w%d", e.Job))
				} else {
					entries = append(entries, fmt.Sprint(e.Job))
				}
			}
			tap.log = append(tap.log, fmt.Sprintf("%s %v", name, entries))
		}))
	}
	if params.Flockd != "" {
		tap.bus.Register(params.Flockd, sim.ActorFunc(func(m sim.Message) {
			if q, ok := m.Body.(flockQueryMsg); ok {
				tap.log = append(tap.log, fmt.Sprintf("%s query %d", params.Flockd, q.Job))
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
	s.handleNoMatch(j.ID)
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
// values, so the first advertisement afterwards — Recover's run —
// carries the rebuilt job's ad, never the discarded value's.
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
	if ad := last(t, tap.next(time.Second)); ad.Ad != j.Ad {
		t.Fatal("the advertisement after recovery carries the discarded job's ad")
	}
}

// TestMutatedAdvertisementDoesNotLeak: a fault that replaces one
// run's body in transit corrupts that delivery only; the job's next
// run carries the schedd's own, unmutated entry.
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
			run := body.(jobAdsMsg)
			run.Ads = slices.Clone(run.Ads)
			run.Ads[0].Ad, run.Ads[0].Flocked = forged, true
			return run
		}}
	})
	if ad := last(t, tap.next(params.AdInterval)); ad.Ad != forged || !ad.Flocked {
		t.Fatal("the fault did not mutate the delivery; the test proves nothing")
	}
	if ad := last(t, tap.next(params.AdInterval)); ad.Ad != j.Ad || ad.Flocked {
		t.Fatalf("the send after a mutated delivery carries the mutation: flocked %v, own ad %v", ad.Flocked, ad.Ad == j.Ad)
	}
}

// TestAdvertisementRunOrder covers every order rule of the schedd's
// runs.  In a refresh, an ad to another negotiator closes the open run
// and so does any other send (a flocked job's query to the
// coordinator); the loop's end closes the last.  Then a flocked job is
// rescued home while the refresh's run to the peer is open: its
// withdrawal to the peer arrives after that run's entries, and its home
// advertisement after the home run.  The journal record the recall
// writes defers the rest of the sends behind the group commit, and the
// commit keeps their order.
func TestAdvertisementRunOrder(t *testing.T) {
	params := DefaultParams()
	params.Flockd, params.FlockAfter, params.FlockTo = "flockd", time.Minute, []string{tapPeer}
	tap := newAdTap(params)
	s := tap.schedd
	var jobs []*Job
	for i := 0; i < 6; i++ {
		jobs = append(jobs, tap.submit())
	}
	for _, j := range []*Job{jobs[2], jobs[5]} {
		j.flockPending = true
		s.handleFlockReply(flockReplyMsg{Job: j.ID, Payload: EncodeFlockMsg(
			FlockMsg{Op: FlockGrant, Job: j.ID, Level: 1, Negotiator: tapPeer})})
	}
	tap.next(time.Second)

	// The first refresh past FlockAfter: jobs 3 and 6 stand at the peer
	// and each asks the coordinator again.
	tap.log = nil
	tap.eng.RunUntil(sim.Time(params.AdInterval))
	tap.eng.RunFor(time.Second)
	home := params.matchmaker()
	want := []string{
		home + " [1 2]", tapPeer + " [3]", "flockd query 3",
		home + " [4 5]", tapPeer + " [6]", "flockd query 6",
	}
	if !slices.Equal(tap.log, want) {
		t.Fatalf("refresh messages\ngot  %q\nwant %q", tap.log, want)
	}

	// The rescue inside an open refresh: the walk has gathered jobs 1,
	// 2 and 3 when the coordinator's recall of job 3 is handled — as by
	// any handler that withdraws and re-advertises while a run is open.
	tap.log = nil
	f := jobs[2]
	for _, j := range jobs[:3] {
		s.gatherAd(j, s.effectiveAd(j))
	}
	f.flockPending = true
	s.handleFlockReply(flockReplyMsg{Job: f.ID, Payload: EncodeFlockMsg(
		FlockMsg{Op: FlockDeny, Job: f.ID, Reason: "peer died"})})
	s.gatherAd(jobs[3], s.effectiveAd(jobs[3]))
	s.ads.flush()
	tap.eng.RunFor(time.Second)
	want = []string{home + " [1 2]", tapPeer + " [3 w3]", home + " [3]", home + " [4]"}
	if !slices.Equal(tap.log, want) {
		t.Fatalf("messages around the rescue\ngot  %q\nwant %q", tap.log, want)
	}
	if f.flockedTo != "" {
		t.Fatal("the recall did not bring the job home")
	}
}

// TestIdleRefreshIsOneRun is the clock-free guard on the refresh path
// — schedd to bus to matchmaker, most of a deep queue's traffic: a
// refresh of n unchanged idle jobs is one message to their negotiator,
// delivered as one event, and allocates the same at n and at 2n (the
// run's body and its entries, once each).
func TestIdleRefreshIsOneRun(t *testing.T) {
	allocs := map[int]float64{}
	for _, n := range []int{512, 1024} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			params := DefaultParams()
			eng, bus, schedd, mm, _ := testPool(t, params)
			for i := 0; i < n; i++ {
				schedd.Submit(&Job{Owner: "alice", Ad: NewJavaJobAd("alice", 128),
					Program: jvm.WellBehaved(time.Minute)})
			}
			eng.RunFor(time.Second)
			if mm.PendingJobs() != n {
				t.Fatalf("the matchmaker holds %d of %d requests", mm.PendingJobs(), n)
			}
			events, sent := eng.Processed(), bus.Sent()
			// The rounds stay well inside one NegotiationInterval and one
			// AdInterval, so nothing else runs.
			allocs[n] = testing.AllocsPerRun(5, func() {
				schedd.advertiseIdle()
				eng.RunFor(10 * time.Millisecond)
			})
			if got := bus.Sent() - sent; got != 6 {
				t.Fatalf("%d messages over six rounds, want one per round", got)
			}
			if got := eng.Processed() - events; got != 6 {
				t.Fatalf("%d events over six rounds, want one delivery per round", got)
			}
			if mm.PendingJobs() != n {
				t.Fatalf("after the refreshes the matchmaker holds %d of %d requests", mm.PendingJobs(), n)
			}
			t.Logf("a refresh round of %d jobs allocates %.0f objects", n, allocs[n])
		})
	}
	if allocs[512] != allocs[1024] || allocs[512] > 2 {
		t.Errorf("a refresh round allocates %.0f objects at 512 jobs and %.0f at 1024, want the same, at most 2",
			allocs[512], allocs[1024])
	}
}
