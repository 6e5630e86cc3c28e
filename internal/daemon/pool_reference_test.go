package daemon_test

// Whole-pool proofs that the throughput machinery changes no decision.
// The matchmaker's auto-clustered cycle is run against the reference
// scan (daemon.RefNegotiate) on failure-rich pools, byte for byte; the
// schedd's derived queue indexes are checked against a scan of the
// queue (daemon.CheckScheddIndex) after every event of a pool that
// crashes, churns and fails, and at the end of the 4k-machine runs.

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/errscope/grid/internal/daemon"
	"github.com/errscope/grid/internal/jvm"
	"github.com/errscope/grid/internal/pool"
	"github.com/errscope/grid/internal/sim"
)

// dispositionTrace renders every job's full event log at every submit
// point, in a fixed order: the byte-exact record of what the pool
// decided and when.
func dispositionTrace(p *pool.Pool) string {
	var sb strings.Builder
	for _, s := range p.Schedds {
		for _, j := range s.Jobs() {
			fmt.Fprintf(&sb, "== %s job %d %s\n", s.Name(), j.ID, j.State)
			sb.WriteString(j.EventLog())
		}
	}
	return sb.String()
}

// negotiation is the cycle an arm runs: the matchmaker's own, or the
// reference scan.
type negotiation func(*daemon.Matchmaker)

var (
	clustered negotiation = (*daemon.Matchmaker).Negotiate
	reference negotiation = daemon.RefNegotiate
)

// driveCycles takes the negotiation beat away from the matchmaker's
// own timer (params.NegotiationInterval is pushed out of the run) and
// gives it to one the test owns, so both arms see the same event
// sequence and differ only in the cycle they call.
func driveCycles(p *pool.Pool, negotiate negotiation) {
	p.Engine.Every(60*time.Second, func() { negotiate(p.Matchmaker) })
}

// diffTraces fails the test at the first line where two traces
// differ.
func diffTraces(t *testing.T, what string, first, second string) {
	t.Helper()
	if first == second {
		return
	}
	fl, sl := strings.Split(first, "\n"), strings.Split(second, "\n")
	for i := range fl {
		if i >= len(sl) || fl[i] != sl[i] {
			t.Fatalf("%s: diverged at line %d:\nfirst:  %s\nsecond: %s",
				what, i, fl[i], sl[min(i, len(sl)-1)])
		}
	}
	t.Fatalf("%s: diverged (length %d vs %d)", what, len(fl), len(sl))
}

// runTracedPool assembles a failure-rich pool — misconfigured
// machines, chronic-failure avoidance, several owners competing — and
// returns its disposition trace.
func runTracedPool(seed int64, negotiate negotiation) string {
	params := daemon.DefaultParams()
	params.ChronicFailureThreshold = 3
	params.MaxAttempts = 10
	params.NegotiationInterval = 1000 * time.Hour
	ms := pool.Misconfigure(pool.UniformMachines(10, 2048), 3, pool.BreakBadLibraryPath, false)
	p := pool.New(pool.Config{Seed: seed, Params: params, Machines: ms, Schedds: 2})
	driveCycles(p, negotiate)
	p.StageSharedInput()
	p.SubmitJava(30, pool.MixedWorkload(seed, 10*time.Minute))
	p.Run(48 * time.Hour)
	return dispositionTrace(p)
}

// TestDeterminismFastPathMatchesReference compares the auto-clustered
// negotiation against the reference scan on a pool with black holes
// and avoidance: the optimization must change
// no decision, so the traces are byte-identical.
func TestDeterminismFastPathMatchesReference(t *testing.T) {
	for _, seed := range []int64{1, 7, 23} {
		diffTraces(t, fmt.Sprintf("seed %d", seed),
			runTracedPool(seed, clustered), runTracedPool(seed, reference))
	}
}

// runUndefinedEdgePool builds the pool that stresses the matchmaker's
// three-valued logic and its ad-expiry bookkeeping at once (the same
// shape as package pool's TestDeterminismUndefinedEdges): jobs whose
// Requirements or Rank reference attributes no machine advertises, a
// machine whose owner policy is UNDEFINED against every job, and
// machines crashing and restarting off the 60s negotiation beat, so
// ads expire mid-cycle.
func runUndefinedEdgePool(seed int64, negotiate negotiation) string {
	params := daemon.DefaultParams()
	params.ChronicFailureThreshold = 2
	params.MaxAttempts = 6
	params.NegotiationInterval = 1000 * time.Hour
	ms := pool.UniformMachines(8, 2048)
	ms[3].OwnerRequirements = "my.NightShift"
	p := pool.New(pool.Config{Seed: seed, Params: params, Machines: ms, Schedds: 2})
	driveCycles(p, negotiate)
	p.StageSharedInput()
	for i := 0; i < 18; i++ {
		ad := daemon.NewJavaJobAd("user", 128)
		switch i % 3 {
		case 1:
			ad.MustSetExpr("Requirements",
				"target.HasJava && (isundefined(target.HasGPU) || target.HasGPU)")
			ad.MustSetExpr("Rank", "target.GPUMemory")
		case 2:
			ad.MustSetExpr("Requirements", "target.HasJava && target.HasGPU")
		}
		exe := fmt.Sprintf("/home/user/job%d.class", i)
		if err := p.Schedd.SubmitFS.WriteFile(exe, []byte("class bytes")); err != nil {
			exe = ""
		}
		p.Schedds[i%2].Submit(&daemon.Job{
			Owner:      "user",
			Ad:         ad,
			Program:    jvm.WellBehaved(7 * time.Minute),
			Executable: exe,
		})
	}
	p.Engine.After(7*time.Minute+13*time.Second, p.Startds[0].Crash)
	p.Engine.After(27*time.Minute+41*time.Second, p.Startds[0].Restart)
	p.Engine.After(11*time.Minute+29*time.Second, p.Startds[5].Crash)
	p.Engine.After(33*time.Minute+7*time.Second, p.Startds[5].Restart)
	p.Run(8 * time.Hour)
	return dispositionTrace(p)
}

// TestDeterminismUndefinedEdgesMatchReference pins the clustered cycle
// to the reference scan on the UNDEFINED-heavy pool.
func TestDeterminismUndefinedEdgesMatchReference(t *testing.T) {
	for _, seed := range []int64{3, 17} {
		diffTraces(t, fmt.Sprintf("seed %d", seed),
			runUndefinedEdgePool(seed, clustered), runUndefinedEdgePool(seed, reference))
	}
}

// checkSchedds runs CheckScheddIndex on every submit point.
func checkSchedds(p *pool.Pool) error {
	for _, s := range p.Schedds {
		if err := daemon.CheckScheddIndex(s); err != nil {
			return err
		}
	}
	return nil
}

// TestScheddIndexHoldsAfterEveryEvent steps a small pool one event at
// a time — black holes feeding chronic-failure avoidance and its
// relaxation, owner churn evicting running jobs, a schedd crash with
// jobs in every state and its journal recovery — and checks the
// schedd's queue indexes against a scan of the queue after each one.
func TestScheddIndexHoldsAfterEveryEvent(t *testing.T) {
	params := daemon.DefaultParams()
	params.ChronicFailureThreshold = 2
	params.ChronicRelaxAfter = 30 * time.Minute
	params.MaxAttempts = 8
	ms := pool.Misconfigure(pool.UniformMachines(12, 2048), 4, pool.BreakBadLibraryPath, false)
	p := pool.New(pool.Config{Seed: 9, Params: params, Machines: ms, Schedds: 2,
		Churn: &pool.ChurnConfig{Horizon: 6 * time.Hour, MeanUp: time.Hour, Downtime: 20 * time.Minute}})
	p.StageSharedInput()
	p.SubmitJava(30, pool.MixedWorkload(9, 20*time.Minute))
	for i := 0; i < 6; i++ {
		exe := fmt.Sprintf("/home/other/job%d.class", i)
		if err := p.Schedds[1].SubmitFS.WriteFile(exe, []byte("class bytes")); err != nil {
			t.Fatal(err)
		}
		p.Schedds[1].Submit(&daemon.Job{Owner: "other", Ad: daemon.NewJavaJobAd("other", 128),
			Program: jvm.WellBehaved(15 * time.Minute), Executable: exe})
	}
	p.Engine.After(37*time.Minute+11*time.Second, p.Schedd.Crash)
	p.Engine.After(52*time.Minute, func() {
		if err := p.Schedd.Recover(nil); err != nil {
			t.Errorf("recover: %v", err)
		}
	})

	deadline := sim.Time(0).Add(72 * time.Hour)
	events := 0
	for p.Engine.Now() < deadline && !p.AllTerminal() && p.Engine.Step() {
		events++
		if err := checkSchedds(p); err != nil {
			t.Fatalf("after event %d at %v: %v", events, p.Engine.Now(), err)
		}
	}
	if !p.AllTerminal() {
		t.Fatalf("the pool did not drain: %s", p.Metrics())
	}
	// The run must have exercised what the check is for.
	trace := dispositionTrace(p)
	for _, ev := range []daemon.EventKind{daemon.EventEvicted, daemon.EventRequeued,
		daemon.EventAvoidanceRelaxed, daemon.EventShadowVanished, daemon.EventRecovered} {
		if !strings.Contains(trace, " "+string(ev)+" ") {
			t.Errorf("no job was ever %s", ev)
		}
	}
	t.Logf("%d events checked", events)
}

// run4kPool drives a pool-scale uniform workload — 4096 machines, one
// full wave of jobs — through a complete lifecycle and returns the
// disposition trace, after checking the schedd's queue indexes.  This
// is the shape where the throughput machinery (idle-job index, journal
// group commit, shared ads, auto-clustered negotiation) all engages at
// once.
func run4kPool(t *testing.T, seed int64) string {
	p := pool.New(pool.Config{
		Seed:     seed,
		Params:   daemon.DefaultParams(),
		Machines: pool.UniformMachines(4096, 2048),
	})
	p.SubmitJava(4096, pool.UniformCompute(5*time.Minute))
	p.Run(24 * time.Hour)
	if err := checkSchedds(p); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return dispositionTrace(p)
}

// TestDeterminism4kMachinePool is the scale gate: at 4096 machines,
// two seeds each run twice must produce byte-identical event logs and
// dispositions, and every job must reach a terminal state.
func TestDeterminism4kMachinePool(t *testing.T) {
	for _, seed := range []int64{5, 19} {
		a := run4kPool(t, seed)
		diffTraces(t, fmt.Sprintf("seed %d rerun", seed), a, run4kPool(t, seed))
		if completed := strings.Count(a, "completed"); completed < 4096 {
			t.Errorf("seed %d: %d of 4096 jobs completed", seed, completed)
		}
	}
}
