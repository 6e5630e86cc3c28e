package daemon

import (
	"testing"
	"time"

	"github.com/errscope/grid/internal/jvm"
	"github.com/errscope/grid/internal/sim"
)

// parentJournalScenario is the run testdata/schedd-pr16.journal was
// captured from, at the commit that wrote it: a small pool with a black-hole
// machine, Java jobs of every outcome, a checkpointing Standard
// Universe job that gets evicted, an ad with escapes in it, a schedd
// crash with a forced compaction after it, then a second crash and a
// late submit, stopped with some fifty entries of every common kind
// behind the snapshot.  It uses nothing that commit did not have,
// so this tree can rerun it and compare what it recovers.
func parentJournalScenario(t *testing.T) *Schedd {
	t.Helper()
	params := DefaultParams()
	params.ChronicFailureThreshold = 1
	params.CheckpointInterval = 10 * time.Minute
	hole := MachineConfig{Name: "hole", Memory: 8192, AdvertiseJava: true}
	hole.JVM.BadLibraryPath = true
	eng := sim.New(42)
	bus := sim.NewBus(eng, 5*time.Millisecond)
	NewMatchmaker(bus, params)
	schedd := NewSchedd(bus, params, "schedd")
	NewStartd(bus, params, hole)
	first := NewStartd(bus, params, MachineConfig{Name: "first", Memory: 4096, AdvertiseJava: true})
	NewStartd(bus, params, goodMachine("m 3"))

	for i := 0; i < 3; i++ {
		submitJavaJob(schedd, jvm.WellBehaved(time.Duration(i+1)*time.Minute))
		submitJavaJob(schedd, jvm.NullPointer())
		submitJavaJob(schedd, jvm.ExitWith(3, 2*time.Second))
	}
	submitJavaJob(schedd, jvm.CorruptImage())
	submitStandard(schedd, 2*time.Hour)
	ad := NewJavaJobAd("bob", 64)
	ad.SetString("Note", "café \"quoted\" back\\slash\nnewline")
	schedd.Submit(&Job{Owner: "bob", Ad: ad, Program: jvm.WellBehaved(30 * time.Second)})

	crash := func(compact bool) func() {
		return func() {
			schedd.Crash()
			if err := schedd.Recover(nil); err != nil {
				t.Errorf("recover: %v", err)
			}
			if compact {
				if err := schedd.ForceCompact(); err != nil {
					t.Errorf("compact: %v", err)
				}
			}
		}
	}
	eng.After(3*time.Minute, crash(true))
	eng.After(25*time.Minute, func() { first.Evict() })
	eng.After(30*time.Minute, crash(false))
	eng.After(31*time.Minute, func() { submitJavaJob(schedd, jvm.WellBehaved(time.Minute)) })
	eng.RunFor(35 * time.Minute)
	return schedd
}
