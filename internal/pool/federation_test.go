package pool

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/errscope/grid/internal/daemon"
)

// federationTrace renders every job's full event log at every submit
// point of every pool, in a fixed order — the byte-exact record of
// what the federation decided and when.
func federationTrace(f *Federation) string {
	var sb strings.Builder
	for _, p := range f.Pools {
		for _, s := range p.Schedds {
			for _, j := range s.Jobs() {
				fmt.Fprintf(&sb, "== %s job %d %s\n", s.Name(), j.ID, j.State)
				sb.WriteString(j.EventLog())
			}
		}
	}
	return sb.String()
}

// runFederation drives a three-pool federation where p1's machines are
// too small for any of its own jobs: everything p1 submits must flock
// to p2 (or onward to p3) to run, while p2's local jobs compete for
// the same machines.
func runFederation(seed int64, workers int) (*Federation, string) {
	fed := NewFederation(FederationConfig{
		Seed:       seed,
		Params:     daemon.DefaultParams(),
		FlockAfter: 2 * time.Minute,
		Workers:    workers,
		Pools: []FedPoolConfig{
			{Name: "p1", Machines: UniformMachines(4, 64), FlockTo: []string{"p2", "p3"}},
			{Name: "p2", Machines: UniformMachines(4, 2048), FlockTo: []string{"p1"}},
			{Name: "p3", Machines: UniformMachines(2, 2048)},
		},
	})
	fed.Pool("p1").SubmitJava(6, UniformCompute(5*time.Minute))
	// p2's local load is seed-varied so the trace discriminates seeds.
	_ = fed.Pool("p2").Schedd.SubmitFS.WriteFile("/home/user/shared.dat", make([]byte, 4096))
	fed.Pool("p2").SubmitJava(3, MixedWorkload(seed, 5*time.Minute))
	fed.Run(24 * time.Hour)
	return fed, federationTrace(fed)
}

// TestFederationFlockingCompletesStarvedJobs is the functional gate:
// jobs unmatchable at home run to completion in a peer pool and their
// dispositions land at the home schedd.
func TestFederationFlockingCompletesStarvedJobs(t *testing.T) {
	fed, trace := runFederation(42, 0)
	if !fed.AllTerminal() {
		t.Fatalf("federation did not drain:\n%s", trace)
	}
	home := fed.Pool("p1").Schedd
	for _, j := range home.Jobs() {
		if j.State != daemon.JobCompleted {
			t.Errorf("p1 job %d: state %s, want completed", j.ID, j.State)
		}
		if !strings.Contains(j.EventLog(), string(daemon.EventFlocked)) {
			t.Errorf("p1 job %d never flocked:\n%s", j.ID, j.EventLog())
		}
	}
	if len(home.Reports()) != 6 {
		t.Errorf("p1 schedd has %d reports, want 6", len(home.Reports()))
	}
	fm := fed.FlockMetrics()
	if fm.Departures == 0 || fm.Grants == 0 || fm.ForeignMatches == 0 {
		t.Errorf("flocking never engaged: %+v", fm)
	}
	if home.FlockDepartures == 0 {
		t.Error("home schedd recorded no flock departures")
	}
}

// TestFederationDeterminism extends the determinism property to the
// federated shape: with one seed the whole federation's disposition
// trace is byte-identical across repeated runs and between the serial
// and parallel engines.
func TestFederationDeterminism(t *testing.T) {
	for _, seed := range []int64{42, 7} {
		_, a := runFederation(seed, 0)
		_, b := runFederation(seed, 0)
		if a != b {
			diffLines(t, "rerun", seed, a, b)
		}
		_, par := runFederation(seed, 4)
		if a != par {
			diffLines(t, "parallel engine", seed, a, par)
		}
	}
	_, a := runFederation(42, 0)
	_, c := runFederation(43, 0)
	if a == c {
		t.Error("different seeds produced identical federated traces; the trace is not discriminating")
	}
}

func diffLines(t *testing.T, what string, seed int64, a, b string) {
	t.Helper()
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range al {
		if i >= len(bl) || al[i] != bl[i] {
			t.Fatalf("seed %d: %s diverged at line %d:\nA: %s\nB: %s",
				seed, what, i, al[i], bl[min(i, len(bl)-1)])
		}
	}
	t.Fatalf("seed %d: %s diverged (length %d vs %d)", seed, what, len(al), len(bl))
}
