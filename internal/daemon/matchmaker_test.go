package daemon

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/errscope/grid/internal/classad"
	"github.com/errscope/grid/internal/sim"
)

// testMachineAd builds a plain machine ad for direct-drive tests.
func testMachineAd(name string, mem int64, hasJava bool) *classad.Ad {
	ad := classad.NewAd()
	ad.SetString("Machine", name)
	ad.SetInt("Memory", mem)
	ad.SetBool("HasJava", hasJava)
	ad.SetString("OpSys", "LINUX")
	return ad
}

// directMatchmaker builds a matchmaker whose periodic cycle never
// fires inside the test window, so tests drive Negotiate explicitly.
func directMatchmaker(seed int64, params Params) (*sim.Engine, *Matchmaker) {
	eng := sim.New(seed)
	bus := sim.NewBus(eng, 0)
	params.NegotiationInterval = 1000 * time.Hour
	m := NewMatchmaker(bus, params)
	bus.Register("schedd", sim.ActorFunc(func(sim.Message) {}))
	return eng, m
}

// machineListNames renders the matchmaker's machine list, tombstones
// marked with a trailing "~".
func machineListNames(m *Matchmaker) string {
	var names []string
	for _, e := range m.machineList {
		if e.absent {
			names = append(names, e.name+"~")
		} else {
			names = append(names, e.name)
		}
	}
	return strings.Join(names, " ")
}

// TestMachineAdExpiry checks that a silent machine vanishes from
// matchmaking and is counted, that its entry stays in the machine list
// as a tombstone until half the machines have expired and the list
// compacts, and that a re-advertise before compaction revives the same
// entry in place.
func TestMachineAdExpiry(t *testing.T) {
	params := DefaultParams()
	params.MachineAdLifetime = 2 * time.Minute
	eng, m := directMatchmaker(1, params)
	advertise := func(names ...string) {
		for _, n := range names {
			m.AdvertiseMachine(n, testMachineAd(n, 1024, true))
		}
	}
	check := func(step, list string, count, expired int) {
		t.Helper()
		if got := machineListNames(m); got != list {
			t.Errorf("%s: machine list %q want %q", step, got, list)
		}
		if m.MachineCount() != count {
			t.Errorf("%s: MachineCount=%d want %d", step, m.MachineCount(), count)
		}
		if m.AdsExpired != expired {
			t.Errorf("%s: AdsExpired=%d want %d", step, m.AdsExpired, expired)
		}
		if len(m.machines) != len(m.machineList) {
			t.Errorf("%s: map holds %d entries, list %d", step, len(m.machines), len(m.machineList))
		}
	}

	advertise("m3", "m1", "m0", "m2") // inserted in name order
	check("advertised", "m0 m1 m2 m3", 4, 0)

	// m3 goes silent: one tombstone of four stays in the list.
	eng.RunFor(time.Minute)
	advertise("m0", "m1", "m2")
	eng.RunFor(90 * time.Second) // past m3's lifetime
	m.Negotiate()
	check("m3 expired", "m0 m1 m2 m3~", 3, 1)

	// m3 comes back before compaction: the tombstone is revived.
	e3 := m.machines["m3"]
	advertise("m3")
	if m.machines["m3"] != e3 {
		t.Error("re-advertise replaced the tombstoned entry instead of reviving it")
	}
	check("m3 revived", "m0 m1 m2 m3", 4, 1)

	// m2 and m3 go silent: the second tombstone is half the map, and
	// the list compacts.
	eng.RunFor(time.Minute)
	advertise("m0", "m1")
	eng.RunFor(90 * time.Second)
	m.Negotiate()
	check("compacted", "m0 m1", 2, 3)
	advertise("m2")
	check("m2 re-inserted", "m0 m1 m2", 3, 3)

	eng.RunFor(2 * time.Hour)
	m.Negotiate()
	check("all expired", "", 0, 6)
}

// TestReadvertiseUpdatesTable checks that a machine whose ad changes
// is pre-filtered on its new constants: a job needing Java stops
// matching a machine that re-advertises without it.
func TestReadvertiseUpdatesTable(t *testing.T) {
	_, m := directMatchmaker(1, DefaultParams())
	m.AdvertiseMachine("m0", testMachineAd("m0", 1024, true))

	m.AdvertiseJob("schedd", 1, NewJavaJobAd("alice", 128))
	m.Negotiate()
	if m.MatchesMade != 1 {
		t.Fatalf("MatchesMade=%d want 1", m.MatchesMade)
	}

	// The machine re-advertises with Java gone: same list entry, new
	// constant snapshot.
	e := m.machines["m0"]
	m.AdvertiseMachine("m0", testMachineAd("m0", 1024, false))
	if m.machines["m0"] != e || machineListNames(m) != "m0" {
		t.Errorf("re-advertise moved the entry: list %q", machineListNames(m))
	}
	if v, _ := e.table.Consts["hasjava"].BoolValue(); v {
		t.Error("constant snapshot still advertises HasJava")
	}
	m.AdvertiseJob("schedd", 2, NewJavaJobAd("alice", 128))
	m.Negotiate()
	if m.MatchesMade != 1 {
		t.Errorf("MatchesMade=%d want 1: job matched a machine that lost Java", m.MatchesMade)
	}
	if m.PrefilterSkips != 1 {
		t.Errorf("PrefilterSkips=%d want 1: the pre-filter should reject the machine", m.PrefilterSkips)
	}
	if m.PendingJobs() != 1 {
		t.Errorf("PendingJobs=%d want 1", m.PendingJobs())
	}
}

// TestReadvertiseClearsProvisionalMatch checks that a machine handed
// out in one cycle becomes visible again when its next ad arrives.
func TestReadvertiseClearsProvisionalMatch(t *testing.T) {
	_, m := directMatchmaker(1, DefaultParams())
	ad := testMachineAd("m0", 1024, true)
	m.AdvertiseMachine("m0", ad)
	m.AdvertiseJob("schedd", 1, NewJavaJobAd("alice", 128))
	m.AdvertiseJob("schedd", 2, NewJavaJobAd("alice", 128))
	m.Negotiate()
	if m.MatchesMade != 1 {
		t.Fatalf("MatchesMade=%d want 1 (machine is provisionally taken)", m.MatchesMade)
	}
	m.Negotiate()
	if m.MatchesMade != 1 {
		t.Fatalf("matched flag ignored: second cycle re-matched a taken machine")
	}
	m.AdvertiseMachine("m0", ad) // same ad object: the cheap refresh path
	m.Negotiate()
	if m.MatchesMade != 2 {
		t.Errorf("MatchesMade=%d want 2 after the machine re-advertised", m.MatchesMade)
	}
}

// TestNegotiateSteadyStateAllocFree pins the allocation-lean core
// claim: a cycle that matches nothing allocates nothing.
func TestNegotiateSteadyStateAllocFree(t *testing.T) {
	_, m := directMatchmaker(1, DefaultParams())
	for i := 0; i < 32; i++ {
		m.AdvertiseMachine(fmt.Sprintf("m%02d", i), testMachineAd(fmt.Sprintf("m%02d", i), 512, i%4 != 0))
	}
	for i := 0; i < 16; i++ {
		// Unsatisfiable: no machine has this much memory.
		m.AdvertiseJob("schedd", JobID(i+1), NewJavaJobAd(fmt.Sprintf("u%d", i%3), 1<<30))
	}
	m.Negotiate() // warm the scratch slices
	allocs := testing.AllocsPerRun(100, m.Negotiate)
	if allocs > 0 {
		t.Errorf("steady-state negotiate allocated %.1f objects per run, want 0", allocs)
	}
}
