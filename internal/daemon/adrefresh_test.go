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

// The schedd's job advertisements are sequenced messages (jobAdsMsg)
// on one channel per negotiator: each refresh is one heartbeat per
// negotiator holding idle jobs, carrying only the entries that changed
// without a message of their own, and every other advertisement or
// withdrawal is a message of one.  These tests pin what the messages
// carry — every input of an entry that can change has a test that the
// next message carries the new value — the order of a refresh, the
// lease that makes a heartbeat renew every request, the gap rules,
// and the refresh's cost: one empty message per negotiator.

// sentAd is one entry of a job-ad message as a negotiator received it.
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
	// a job-ad message as its destination, its kind (beat, full or ad)
	// and entries (wN withdraws job N), a flock query as
	// "flockd query N".
	log []string
}

const tapPeer = "peer-negotiator"

func newAdTap(params Params) *adTap {
	tap := &adTap{eng: sim.New(1)}
	tap.bus = sim.NewBus(tap.eng, 5*time.Millisecond)
	for _, name := range []string{params.matchmaker(), tapPeer} {
		tap.bus.Register(name, sim.ActorFunc(func(m sim.Message) {
			run, ok := m.Body.(*jobAdsMsg)
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
			tap.log = append(tap.log, fmt.Sprintf("%s %s %v", name, adsKind(run), entries))
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

// adsKind names a job-ad message's kind for the tap's log.
func adsKind(m *jobAdsMsg) string {
	switch {
	case m.Full:
		return "full"
	case m.Beat:
		return "beat"
	}
	return "ad"
}

func (tap *adTap) submit() *Job {
	id := tap.schedd.Submit(&Job{Owner: "alice", Ad: NewJavaJobAd("alice", 128),
		Program: jvm.WellBehaved(time.Minute)})
	return tap.schedd.Job(id)
}

// next runs the engine for d and returns the entries that arrived
// meanwhile; tap.log holds the messages.
func (tap *adTap) next(d time.Duration) []sentAd {
	tap.got, tap.log = nil, nil
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
	t.Fatalf("no advertisement among %d entries", len(batch))
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
// time the first message after the change must carry the new ad,
// while a refresh with nothing changed carries no entry at all.
func TestAdvertisedAdFollowsAvoidance(t *testing.T) {
	params := DefaultParams()
	params.ChronicFailureThreshold = 3
	tap := newAdTap(params)
	j := tap.submit()
	s := tap.schedd
	tick := params.AdInterval
	home := params.matchmaker()

	if ad := last(t, tap.next(time.Second)); ad.Ad != j.Ad || ad.Flocked || ad.to != home {
		t.Fatalf("first advertisement: to %s, flocked %v, own ad %v", ad.to, ad.Flocked, ad.Ad == j.Ad)
	}
	if batch := tap.next(tick); len(batch) != 0 || !slices.Equal(tap.log, []string{home + " beat []"}) {
		t.Fatalf("an unchanged job's refresh: entries %v, messages %q; want one empty heartbeat", batch, tap.log)
	}

	s.machineFailures["blackhole"] = failureRecord{count: params.ChronicFailureThreshold, last: tap.eng.Now()}
	s.avoidedDirty = true
	if ad := last(t, tap.next(tick)); ad.Ad == j.Ad || !avoids(ad.Ad, "blackhole") {
		t.Fatalf("the refresh after a machine turned chronic does not avoid it: %v", ad.Ad)
	}
	avoiding := j.avoidingAd
	if batch := tap.next(tick); len(batch) != 0 {
		t.Fatalf("the refresh after the change carries %d entries again", len(batch))
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

	// The next attempt re-arms avoidance; the job's next idle spell
	// advertises it, and the list has not changed, so the job's
	// strengthened ad is the one it had.
	j.avoidanceRelaxed = false
	s.advertiseJob(j)
	if ad := last(t, tap.next(time.Second)); ad.Ad != avoiding {
		t.Fatal("the advertisement after avoidance re-armed does not carry the job's strengthened ad")
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
// flag and its destination, and the recall flips both back.  The
// first message to the peer is full, as every channel's first is; the
// refresh sends each negotiator its own heartbeat.
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
			t.Fatalf("%s: %d entries, want a withdrawal and an advertisement", what, len(batch))
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
	if want := []string{home + " ad [w1]", tapPeer + " full [1]"}; !slices.Equal(tap.log, want) {
		t.Errorf("grant messages %q, want %q", tap.log, want)
	}
	tap.next(params.AdInterval)
	if want := []string{tapPeer + " beat []"}; !slices.Equal(tap.log[:1], want) {
		t.Errorf("refresh while flocked: %q, want the peer's heartbeat first", tap.log)
	}
	check("recall", reply(FlockMsg{Op: FlockDeny, Job: j.ID, Reason: "peer died"}), tapPeer, home, false)
	tap.next(params.AdInterval)
	if want := []string{home + " beat []"}; !slices.Equal(tap.log, want) {
		t.Errorf("refresh after the recall: %q, want %q", tap.log, want)
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
// message's body in transit corrupts that delivery only; the job's
// next message carries the schedd's own, unmutated entry.
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
			run := *body.(*jobAdsMsg)
			run.Ads = slices.Clone(run.Ads)
			run.Ads[0].Ad, run.Ads[0].Flocked = forged, true
			return &run
		}}
	})
	tap.schedd.advertiseJob(j)
	if ad := last(t, tap.next(time.Second)); ad.Ad != forged || !ad.Flocked {
		t.Fatal("the fault did not mutate the delivery; the test proves nothing")
	}
	tap.schedd.advertiseJob(j)
	if ad := last(t, tap.next(time.Second)); ad.Ad != j.Ad || ad.Flocked {
		t.Fatalf("the send after a mutated delivery carries the mutation: flocked %v, own ad %v", ad.Flocked, ad.Ad == j.Ad)
	}
}

// TestRefreshOrder: a refresh sends one heartbeat per negotiator
// holding idle jobs — home first when it holds any, then each peer in
// the idle order of its first job — and then rescues the flocked jobs
// in idle order, each asking the coordinator again.  Nothing between
// the heartbeats walks a job.
func TestRefreshOrder(t *testing.T) {
	params := DefaultParams()
	params.Flockd, params.FlockAfter, params.FlockTo = "flockd", time.Minute, []string{tapPeer}
	tap := newAdTap(params)
	s := tap.schedd
	var jobs []*Job
	for i := 0; i < 6; i++ {
		jobs = append(jobs, tap.submit())
	}
	for _, j := range []*Job{jobs[5], jobs[2]} {
		j.flockPending = true
		s.handleFlockReply(flockReplyMsg{Job: j.ID, Payload: EncodeFlockMsg(
			FlockMsg{Op: FlockGrant, Job: j.ID, Level: 1, Negotiator: tapPeer})})
	}
	tap.next(time.Second)

	// The first refresh past FlockAfter: jobs 3 and 6 stand at the peer
	// and each asks the coordinator again, in idle order.
	tap.log = nil
	tap.eng.RunUntil(sim.Time(params.AdInterval))
	tap.eng.RunFor(time.Second)
	home := params.matchmaker()
	want := []string{home + " beat []", tapPeer + " beat []", "flockd query 3", "flockd query 6"}
	if !slices.Equal(tap.log, want) {
		t.Fatalf("refresh messages\ngot  %q\nwant %q", tap.log, want)
	}

	// With every job flocked, home gets no heartbeat.
	for _, j := range []*Job{jobs[0], jobs[1], jobs[3], jobs[4]} {
		j.flockPending = true
		s.handleFlockReply(flockReplyMsg{Job: j.ID, Payload: EncodeFlockMsg(
			FlockMsg{Op: FlockGrant, Job: j.ID, Level: 1, Negotiator: tapPeer})})
	}
	tap.next(time.Second)
	tap.log = nil
	tap.eng.RunUntil(sim.Time(2 * params.AdInterval))
	tap.eng.RunFor(time.Second)
	if len(tap.log) == 0 || tap.log[0] != tapPeer+" beat []" || slices.Contains(tap.log, home+" beat []") {
		t.Fatalf("refresh with every job flocked: %q", tap.log)
	}
}

// TestSteadyRefreshIsOneHeartbeat is the clock-free guard on the
// refresh path — schedd to bus to matchmaker, most of a deep queue's
// traffic: a refresh of n unchanged idle jobs is one message to their
// negotiator with no entries, delivered as one event, allocating
// nothing at n or at 2n, and the matchmaker still holds every request,
// its lease renewed.
func TestSteadyRefreshIsOneHeartbeat(t *testing.T) {
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
			var entries int
			bus.Trace = func(m sim.Message, delivered bool) {
				if run, ok := m.Body.(*jobAdsMsg); ok && delivered {
					entries += len(run.Ads)
				}
			}
			l := mm.lease(schedd.Name())
			events, sent, round := eng.Processed(), bus.Sent(), l.round
			// The rounds stay well inside one NegotiationInterval and one
			// AdInterval, so nothing else runs.
			allocs := testing.AllocsPerRun(5, func() {
				schedd.advertiseIdle()
				eng.RunFor(10 * time.Millisecond)
			})
			if got := bus.Sent() - sent; got != 6 {
				t.Fatalf("%d messages over six rounds, want one per round", got)
			}
			if got := eng.Processed() - events; got != 6 {
				t.Fatalf("%d events over six rounds, want one delivery per round", got)
			}
			if entries != 0 || l.round != round+6 || l.last != eng.Now().Add(-10*time.Millisecond+5*time.Millisecond) {
				t.Fatalf("six heartbeats carried %d entries and moved the lease %d rounds, to %v",
					entries, l.round-round, l.last)
			}
			if mm.PendingJobs() != n {
				t.Fatalf("after the refreshes the matchmaker holds %d of %d requests", mm.PendingJobs(), n)
			}
			if allocs != 0 {
				t.Errorf("a refresh round of %d jobs allocates %.0f objects, want none", n, allocs)
			}
		})
	}
}

// TestLeaseExpiry: a schedd that goes silent has every request expire
// at one virtual instant — the first cycle past its last heartbeat's
// arrival plus JobAdLifetime, where each request's own last refresh
// put it when every refresh re-sent every ad — except a request whose
// own ad came after that heartbeat, which lives as long past its ad.
func TestLeaseExpiry(t *testing.T) {
	params := DefaultParams()
	eng, _, schedd, mm, _ := testPool(t, params) // no machines: every job stays idle
	for i := 0; i < 5; i++ {
		schedd.Submit(&Job{Owner: "alice", Ad: NewJavaJobAd("alice", 128), Program: jvm.WellBehaved(time.Minute)})
		eng.RunFor(7 * time.Second)
	}
	eng.RunUntil(sim.Time(200 * time.Second)) // heartbeats arrive at 60, 120 and 180 s + 5 ms
	schedd.stopAds()                          // the schedd goes silent
	eng.RunUntil(sim.Time(215 * time.Second))
	late := schedd.Submit(&Job{Owner: "alice", Ad: NewJavaJobAd("alice", 128), Program: jvm.WellBehaved(time.Minute)})

	l := mm.lease(schedd.Name())
	if want := sim.Time(180*time.Second + 5*time.Millisecond); l.last != want {
		t.Fatalf("the lease was last renewed at %v, want %v", l.last, want)
	}
	if j := l.jobs.get(1); j == nil || j.at >= l.last {
		t.Fatalf("job 1's own ad is not older than the lease; the test proves nothing")
	}
	lifetime := adLifetime(params.JobAdLifetime)
	expireAt := func(last sim.Time) sim.Time { // the first cycle strictly past last + lifetime
		cycle := sim.Time(params.NegotiationInterval)
		return (last.Add(lifetime)/cycle + 1) * cycle
	}
	check := func(at sim.Time, pending, expired int) {
		t.Helper()
		eng.RunUntil(at)
		if mm.PendingJobs() != pending || mm.JobAdsExpired != expired {
			t.Fatalf("at %v: %d requests pending, %d expired; want %d and %d",
				eng.Now(), mm.PendingJobs(), mm.JobAdsExpired, pending, expired)
		}
	}
	leaseEnd := expireAt(l.last)
	lateEnd := expireAt(sim.Time(215*time.Second + 5*time.Millisecond))
	if leaseEnd != sim.Time(360*time.Second) || lateEnd != sim.Time(420*time.Second) {
		t.Fatalf("expiry cycles %v and %v; the test assumes 6m and 7m", leaseEnd, lateEnd)
	}
	check(leaseEnd-1, 6, 0)
	check(leaseEnd+1, 1, 5)
	if l.jobs.get(late).dormant || mm.PendingJobs() != 1 {
		t.Fatal("the late job's request went with the lease")
	}
	check(lateEnd-1, 1, 5)
	check(lateEnd+1, 0, 6)
}

// adTraffic counts, on a bus, the job-ad messages a schedd's channel
// delivered by kind, and the resync questions sent back.
type adTraffic struct{ beats, full, ads, resyncs int }

func countAds(bus *sim.Bus) *adTraffic {
	c := &adTraffic{}
	bus.Trace = func(m sim.Message, delivered bool) {
		if !delivered {
			return
		}
		switch body := m.Body.(type) {
		case *jobAdsMsg:
			switch {
			case body.Full:
				c.full++
			case body.Beat:
				c.beats++
			default:
				c.ads++
			}
		case adResyncMsg:
			c.resyncs++
		}
	}
	return c
}

// TestHeartbeatGapResyncs strikes one sequenced message — a heartbeat
// or a message of one job — with a drop, a duplicate or a delay past
// the next heartbeat.  A missed message costs exactly one resync round
// trip, asked at the next heartbeat: one question, one full message,
// after which the negotiator holds every request and the channel runs
// in sequence again.  A duplicate, or a late message the full one
// already answered, changes nothing.
func TestHeartbeatGapResyncs(t *testing.T) {
	beat := func(m *jobAdsMsg) bool { return m.Beat }
	oneOff := func(m *jobAdsMsg) bool { return !m.Beat && !m.Full }
	for _, tc := range []struct {
		name    string
		hit     func(*jobAdsMsg) bool
		fault   sim.Fault
		resyncs int
		// renewals is how many of the three heartbeats renewed the
		// lease: a lost or late one does not, nor does one that asks.
		renewals uint64
	}{
		{"dropped heartbeat", beat, sim.Fault{Drop: true}, 1, 1},
		{"dropped advertisement", oneOff, sim.Fault{Drop: true}, 1, 2},
		{"duplicated heartbeat", beat, sim.Fault{Duplicates: 1}, 0, 3},
		{"duplicated advertisement", oneOff, sim.Fault{Duplicates: 1}, 0, 3},
		{"delayed heartbeat", beat, sim.Fault{Delay: 90 * time.Second}, 1, 1},
		{"delayed advertisement", oneOff, sim.Fault{Delay: 90 * time.Second}, 1, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			params := DefaultParams()
			eng, bus, schedd, mm, _ := testPool(t, params)
			submit := func() JobID {
				return schedd.Submit(&Job{Owner: "alice", Ad: NewJavaJobAd("alice", 128),
					Program: jvm.WellBehaved(time.Minute)})
			}
			for i := 0; i < 4; i++ {
				submit()
			}
			eng.RunFor(90 * time.Second)
			traffic := countAds(bus)
			l := mm.lease(schedd.Name())
			start := l.round
			armed := true
			bus.SetFaultFunc(func(m sim.Message) sim.Fault {
				if ads, ok := m.Body.(*jobAdsMsg); ok && armed && tc.hit(ads) {
					armed = false
					return tc.fault
				}
				return sim.Fault{}
			})
			if tc.hit(&jobAdsMsg{}) {
				submit() // the message of one job the fault strikes
			}
			eng.RunFor(3 * params.AdInterval)
			if armed {
				t.Fatal("the fault struck nothing")
			}
			if traffic.resyncs != tc.resyncs || traffic.full != tc.resyncs || mm.AdResyncs != tc.resyncs {
				t.Fatalf("%d resync questions, %d full messages, %d counted; want %d each",
					traffic.resyncs, traffic.full, mm.AdResyncs, tc.resyncs)
			}
			if l.round-start != tc.renewals {
				t.Fatalf("%d of three heartbeats renewed the lease, want %d", l.round-start, tc.renewals)
			}
			want := 4 + b2i(tc.hit(&jobAdsMsg{}))
			if mm.PendingJobs() != want || l.seq != schedd.link(params.matchmaker()).seq || l.gap || l.asked {
				t.Fatalf("after the fault: %d of %d requests, lease at %d/%d gap %v asked %v",
					mm.PendingJobs(), want, l.seq, schedd.link(params.matchmaker()).seq, l.gap, l.asked)
			}
			round := l.round
			eng.RunFor(params.AdInterval)
			if mm.AdResyncs != tc.resyncs || l.round != round+1 {
				t.Fatalf("the next heartbeat asked %d more and moved the lease %d rounds",
					mm.AdResyncs-tc.resyncs, l.round-round)
			}
		})
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
