package daemon

import (
	"fmt"
	"testing"
	"time"

	"github.com/errscope/grid/internal/sim"
)

// TestAutoClusterScansOncePerCycle pins the negotiation complexity
// win: jobs with byte-identical ads share one candidate scan per
// cycle, and successive cluster members take successive machines —
// exactly the assignment the per-job scan would make.
func TestAutoClusterScansOncePerCycle(t *testing.T) {
	_, m := directMatchmaker(1, DefaultParams())
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("m%d", i)
		m.AdvertiseMachine(name, testMachineAd(name, int64(512+256*i), true))
	}
	for i := 1; i <= 4; i++ {
		m.AdvertiseJob("schedd", JobID(i), NewJavaJobAd("alice", 128))
	}
	m.Negotiate()
	if m.MatchesMade != 4 {
		t.Fatalf("MatchesMade = %d, want 4", m.MatchesMade)
	}
	if m.ClusterScans != 1 {
		t.Errorf("ClusterScans = %d, want 1: identical ads must share one scan", m.ClusterScans)
	}

	// A job with a different ad is its own cluster; the first
	// cluster's jobs all matched and left, so the second cycle scans
	// exactly once more.
	m.AdvertiseJob("schedd", 5, NewJavaJobAd("alice", 256))
	m.Negotiate()
	if m.ClusterScans != 2 {
		t.Errorf("ClusterScans = %d, want 2: one new cluster, one new scan", m.ClusterScans)
	}
}

// TestAutoClusterMatchesReferenceOrder compares the clustered cycle
// against the reference scan (refNegotiate) job for job: same
// machines, same rank-descending assignment, rank ties broken by name
// order.
func TestAutoClusterMatchesReferenceOrder(t *testing.T) {
	assign := func(negotiate func(*Matchmaker)) []string {
		params := DefaultParams()
		params.NegotiationInterval = 1000 * time.Hour
		eng := sim.New(1)
		bus := sim.NewBus(eng, 0)
		m := NewMatchmaker(bus, params)
		var got []string
		bus.Register("schedd", sim.ActorFunc(func(msg sim.Message) {
			if n, ok := msg.Body.(matchNotifyMsg); ok {
				got = append(got, fmt.Sprintf("%d->%s", n.Job, n.Machine))
			}
		}))
		for i := 0; i < 6; i++ {
			name := fmt.Sprintf("m%d", i)
			// Rank = target.Memory; two distinct tiers plus a tie
			// group exercise both the ordering and the stable
			// first-by-name tie-break.
			mem := int64(1024)
			if i%2 == 0 {
				mem = int64(2048 - 128*i)
			}
			m.AdvertiseMachine(name, testMachineAd(name, mem, true))
		}
		for i := 1; i <= 6; i++ {
			m.AdvertiseJob("schedd", JobID(i), NewJavaJobAd("alice", 128))
		}
		negotiate(m)
		eng.RunFor(time.Second)
		return got
	}
	fast := assign((*Matchmaker).Negotiate)
	slow := assign((*Matchmaker).refNegotiate)
	if fmt.Sprint(fast) != fmt.Sprint(slow) {
		t.Fatalf("clustered assignment %v differs from reference %v", fast, slow)
	}
	want := []string{"1->m0", "2->m2", "3->m4", "4->m1", "5->m3", "6->m5"}
	if fmt.Sprint(fast) != fmt.Sprint(want) {
		t.Errorf("assignment = %v, want %v (rank order, ties by name)", fast, want)
	}
}
