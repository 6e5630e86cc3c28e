package pool

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/errscope/grid/internal/daemon"
	"github.com/errscope/grid/internal/jvm"
)

// dispositionTrace renders every job's full event log at every submit
// point, in a fixed order: the byte-exact record of what the pool
// decided and when.
func dispositionTrace(p *Pool) string {
	var sb strings.Builder
	for _, s := range p.Schedds {
		for _, j := range s.Jobs() {
			fmt.Fprintf(&sb, "== %s job %d %s\n", s.Name(), j.ID, j.State)
			sb.WriteString(j.EventLog())
		}
	}
	return sb.String()
}

// runTracedPool assembles a failure-rich pool — misconfigured
// machines, chronic-failure avoidance, several owners competing — and
// returns its disposition trace.
func runTracedPool(seed int64) string {
	params := daemon.DefaultParams()
	params.ChronicFailureThreshold = 3
	params.MaxAttempts = 10
	ms := Misconfigure(UniformMachines(10, 2048), 3, BreakBadLibraryPath, false)
	p := New(Config{Seed: seed, Params: params, Machines: ms, Schedds: 2})
	p.StageSharedInput()
	p.SubmitJava(30, MixedWorkload(seed, 10*time.Minute))
	p.Run(48 * time.Hour)
	return dispositionTrace(p)
}

// TestDeterminismSameSeedSameTrace is the regression gate for the
// matchmaking fast path: with one seed, the pool must produce
// byte-identical job-disposition traces run-to-run.
func TestDeterminismSameSeedSameTrace(t *testing.T) {
	a := runTracedPool(11)
	b := runTracedPool(11)
	if a != b {
		t.Fatalf("same seed, different traces:\n--- run A ---\n%s\n--- run B ---\n%s", a, b)
	}
	if runTracedPool(12) == a {
		t.Error("different seeds produced identical traces; the trace is not discriminating")
	}
}

// runUndefinedEdgePool builds a pool that stresses the matchmaker's
// three-valued logic and its ad-expiry bookkeeping at once:
//
//   - jobs whose Requirements or Rank reference attributes no machine
//     advertises (target.HasGPU, target.GPUMemory) — every candidate
//     edge evaluates UNDEFINED, which must fail the acceptance test
//     in the indexed fast path exactly as in the reference scan;
//   - machines whose owner policy references an attribute jobs do not
//     carry (my.NightShift), the machine-side UNDEFINED veto;
//   - machines crashing and restarting at instants not aligned with
//     the 60s negotiation cycle, so ads expire mid-cycle and the
//     candidate index must shrink and regrow in step with the pool.
//
// internal/daemon's TestDeterminismUndefinedEdgesMatchReference runs
// the same shape against the reference negotiation scan.
func runUndefinedEdgePool(seed int64) string {
	params := daemon.DefaultParams()
	params.ChronicFailureThreshold = 2
	params.MaxAttempts = 6
	ms := UniformMachines(8, 2048)
	// One machine vetoes anything that is not definitely a night-shift
	// job: jobs never advertise NightShift, so the veto edge is
	// UNDEFINED, not false.
	ms[3].OwnerRequirements = "my.NightShift"
	p := New(Config{Seed: seed, Params: params, Machines: ms, Schedds: 2})
	p.StageSharedInput()

	// Three job flavors, interleaved.
	for i := 0; i < 18; i++ {
		ad := daemon.NewJavaJobAd("user", 128)
		switch i % 3 {
		case 1:
			// GPU-preferring: matches anywhere Java works, but ranks
			// by an attribute that is UNDEFINED on every machine.
			ad.MustSetExpr("Requirements",
				"target.HasJava && (isundefined(target.HasGPU) || target.HasGPU)")
			ad.MustSetExpr("Rank", "target.GPUMemory")
		case 2:
			// GPU-requiring: the requirement edge is UNDEFINED on
			// every machine, so the job must stay idle forever.
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

	// Mid-cycle churn: crashes and restarts offset from the 60s
	// negotiation beat, so ads (lifetime 150s) expire partway through
	// a cycle sequence.
	p.Engine.After(7*time.Minute+13*time.Second, p.Startds[0].Crash)
	p.Engine.After(27*time.Minute+41*time.Second, p.Startds[0].Restart)
	p.Engine.After(11*time.Minute+29*time.Second, p.Startds[5].Crash)
	p.Engine.After(33*time.Minute+7*time.Second, p.Startds[5].Restart)

	p.Run(8 * time.Hour)
	return dispositionTrace(p)
}

// TestDeterminismUndefinedEdges pins the trace of the UNDEFINED-heavy
// pool to itself across reruns of one seed, and the UNDEFINED
// requirement to stranding exactly the jobs it names.
func TestDeterminismUndefinedEdges(t *testing.T) {
	for _, seed := range []int64{3, 17} {
		fast := runUndefinedEdgePool(seed)
		if again := runUndefinedEdgePool(seed); again != fast {
			t.Fatalf("seed %d: same seed, different traces", seed)
		}
		// The UNDEFINED requirement must strand exactly the
		// GPU-requiring third of the jobs, never silently match them.
		idle := 0
		for _, line := range strings.Split(fast, "\n") {
			if strings.Contains(line, "== ") && strings.HasSuffix(line, "idle") {
				idle++
			}
		}
		if idle != 6 {
			t.Errorf("seed %d: %d jobs idle, want the 6 GPU-requiring ones", seed, idle)
		}
	}
}
