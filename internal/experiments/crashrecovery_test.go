package experiments

import (
	"testing"
	"time"

	"github.com/errscope/grid/internal/daemon"
	"github.com/errscope/grid/internal/pool"
)

// TestCrashRecovery runs the full phase sweep: the schedd dies at
// six lifecycle instants, recovers from its journal, and every job
// must reach the baseline disposition.  CrashRecovery returns an
// error on any divergence, so the test is mostly a pass/fail gate;
// the row-count check pins the six phases plus baseline.
func TestCrashRecovery(t *testing.T) {
	rep, err := CrashRecovery(42)
	if err != nil {
		t.Fatalf("%v\n%s", err, rep.Format())
	}
	if len(rep.Rows) != 7 {
		t.Errorf("rows = %d, want baseline + 6 phases\n%s", len(rep.Rows), rep.Format())
	}
	for _, row := range rep.Rows {
		if row[len(row)-1] != "ok" {
			t.Errorf("phase %s: %s", row[0], row[len(row)-1])
		}
	}
}

// TestCrashRecoverySeedIndependent: the durability contract is not a
// property of one lucky seed.
func TestCrashRecoverySeedIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("extra seeds in -short mode")
	}
	for _, seed := range []int64{7, 1234} {
		if rep, err := CrashRecovery(seed); err != nil {
			t.Errorf("seed %d: %v\n%s", seed, err, rep.Format())
		}
	}
}

// TestPatientJobsSurviveScheddCrash: the per-job mount arm's jobs
// declare OutageTolerance in their ads, and a schedd crash must not
// cost them the declaration — neither when the queue is replayed from
// the submit records nor from a snapshot.  When the attribute was set
// on the queued job after Submit, recovery silently read it as 0.
func TestPatientJobsSurviveScheddCrash(t *testing.T) {
	p := pool.New(pool.Config{Seed: 42, Params: daemon.DefaultParams(),
		Machines: pool.UniformMachines(2, 2048)})
	ids := submitPatientJobs(p, 4, 10*time.Minute)
	check := func(when string) {
		t.Helper()
		for i, id := range ids {
			want := 2 * time.Minute
			if i%2 == 1 {
				want = 2 * time.Hour
			}
			if got := p.Schedd.Job(id).OutageTolerance(); got != want {
				t.Errorf("%s: job %d OutageTolerance = %v, want %v", when, id, got, want)
			}
		}
	}
	check("as submitted")
	for _, when := range []string{"crash before a compaction", "crash after a compaction"} {
		p.Schedd.Crash()
		if err := p.Schedd.Recover(nil); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		check(when)
		if err := p.Schedd.ForceCompact(); err != nil {
			t.Fatal(err)
		}
	}
}
