package daemon

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/errscope/grid/internal/journal"
	"github.com/errscope/grid/internal/jvm"
	"github.com/errscope/grid/internal/scope"
	"github.com/errscope/grid/internal/sim"
)

// blankQueue is a schedd with an empty queue, the state Recover
// resets to before it applies a journal.
func blankQueue() *Schedd {
	return NewSchedd(sim.NewBus(sim.New(1), 5*time.Millisecond), DefaultParams(), "schedd")
}

// queueState is everything a replay rebuilds: the snapshot encoding
// (header, blame table, jobs with identity and attempts), the reports
// in completion order, and the flock fields a snapshot deliberately
// leaves out.
func queueState(s *Schedd) string {
	var b strings.Builder
	b.Write(s.snapshot())
	for _, r := range s.Reports() {
		b.Write(appendReport(nil, &r))
	}
	for _, j := range s.Jobs() {
		fmt.Fprintf(&b, "flock id=%d to=%q level=%d at=%d\n", j.ID, j.flockedTo, j.flockLevel, j.flockedAt)
	}
	return b.String()
}

// sameVerdict fails unless the two decoders agreed on one input:
// both accepted or both refused with the same error text, and on
// accept rebuilt the same queue.
func sameVerdict(t *testing.T, what string, input []byte, ref, got *Schedd, refErr, gotErr error) {
	t.Helper()
	if (refErr == nil) != (gotErr == nil) || (refErr != nil && refErr.Error() != gotErr.Error()) {
		t.Fatalf("%s %q:\nreference error: %v\n   cursor error: %v", what, input, refErr, gotErr)
	}
	if refErr != nil {
		return
	}
	if want, have := queueState(ref), queueState(got); want != have {
		t.Fatalf("%s %q: rebuilt queues differ\n--- reference ---\n%s--- cursor ---\n%s", what, input, want, have)
	}
}

// diffReplay feeds one input to the reference decoder and to the
// cursor decoder, twice: as a snapshot payload into an empty queue,
// and as an entry record on top of the queue base rebuilds.
func diffReplay(t *testing.T, base, input []byte) {
	t.Helper()
	ref, got := blankQueue(), blankQueue()
	refErr, gotErr := ref.refApplySnapshot(input), newReplayer(got).applySnapshot(input)
	sameVerdict(t, "snapshot", input, ref, got, refErr, gotErr)

	ref, got = blankQueue(), blankQueue()
	rp := newReplayer(got)
	if err := ref.refApplySnapshot(base); err != nil {
		t.Fatalf("reference refuses the base snapshot: %v", err)
	}
	if err := rp.applySnapshot(base); err != nil {
		t.Fatalf("cursor refuses the base snapshot: %v", err)
	}
	refErr, gotErr = ref.refApplyEntry(input), rp.applyEntry(input)
	sameVerdict(t, "entry", input, ref, got, refErr, gotErr)
}

// replaySeeds returns a real multi-job snapshot and one real record
// of every kind the schedd journals.  The snapshot comes from a pool
// that ran a mixed workload past a crash and a recovery, so it holds
// completed, held-for-retry and unexecutable jobs, closed
// attempts with scoped errors, blame-table lines and reports; the
// entries the same schedd wrote afterwards cover submit, match, exec,
// final and recover, and the encoders give the rest.
func replaySeeds(t testing.TB) (snapshot []byte, records [][]byte) {
	params := DefaultParams()
	params.ChronicFailureThreshold = 1
	eng := sim.New(1)
	bus := sim.NewBus(eng, 5*time.Millisecond)
	NewMatchmaker(bus, params)
	schedd := NewSchedd(bus, params, "schedd")
	NewStartd(bus, params, goodMachine("m1"))
	NewStartd(bus, params, MachineConfig{Name: "m 2", Memory: 2048, AdvertiseJava: true,
		JVM: jvm.Config{BadLibraryPath: true}})

	submitJavaJob(schedd, jvm.WellBehaved(time.Minute))
	submitJavaJob(schedd, jvm.NullPointer())
	submitJavaJob(schedd, jvm.ExitWith(3, 2*time.Second))
	submitJavaJob(schedd, jvm.CorruptImage())
	eng.RunFor(90 * time.Second)
	schedd.Crash()
	if err := schedd.Recover(nil); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(20 * time.Minute)
	// The seed is a snapshot of the whole queue as a journal written
	// before jobs retired holds it, and replay still reads: taken before
	// the compaction retires the terminal jobs, with the reports after
	// the jobs.
	snapshot = bytes.Clone(schedd.snapshot())
	for i := range schedd.reports {
		snapshot = appendReport(snapshot, &schedd.reports[i])
	}
	if err := schedd.ForceCompact(); err != nil {
		t.Fatal(err)
	}

	submitJavaJob(schedd, jvm.WellBehaved(time.Hour)) // still running at the second crash
	ad := NewStandardJobAd("bob", 64)
	ad.SetString("Note", "caf\u00e9 \"quoted\" back\\slash\nnewline")
	schedd.Submit(&Job{Owner: "bob", Universe: "standard", Ad: ad,
		Program: jvm.ReadsInput("/home/bob/in put.dat", 16), Executable: "/home/bob/a.out"})
	eng.RunFor(90 * time.Second)
	schedd.Crash()
	if err := schedd.Recover(nil); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(10 * time.Minute)
	r := schedd.Journal().Replay()
	if len(r.Snapshot) == 0 || len(r.Entries) == 0 {
		t.Fatalf("seed journal: %d snapshot bytes, %d entries", len(r.Snapshot), len(r.Entries))
	}
	seen := make(map[string]bool)
	for _, e := range r.Entries {
		op, _, _ := strings.Cut(string(e), " ")
		if !seen[op] {
			seen[op] = true
			records = append(records, bytes.Clone(e))
		}
	}
	for _, op := range []string{"op=submit", "op=match", "op=exec", "op=final", "op=recover"} {
		if !seen[op] {
			t.Fatalf("seed journal holds no %s record (have %v)", op, seen)
		}
	}
	lost := scope.New(scope.ScopeRemoteResource, "LostContact", "machine %s went silent", "m 2")
	records = append(records,
		recCkpt(2, 1234, 90*time.Second),
		recFlock(2, 1500, 1, "negotiator@peer pool"),
		recFlock(2, 1600, 0, ""),
		recEvent("claim-timeout", 1, 99),
		recEvent("claim-denied", 1, 100),
		recEvent("relax", 3, 101),
		recFinal(jobFinalMsg{Job: 2, Machine: "m 2", CPU: time.Minute, CheckpointCPU: time.Second,
			Evicted: true, Preempted: true, LostContact: lost.WithOrigin("shadow"),
			Reported: scope.Result{Status: scope.StatusNoResult},
			True:     scope.Result{Status: scope.StatusNoResult}}, 1700),
	)
	return snapshot, records
}

// FuzzScheddReplay is the differential fuzz of the schedd-journal
// decoder against the map-based one it replaced: the two must accept
// and refuse exactly the same bytes, with the same error, and rebuild
// byte-equal queues.  Seeds: a real snapshot, a real record of every
// kind, and every prefix of each.
//
//	go test ./internal/daemon -run xxx -fuzz '^FuzzScheddReplay$' \
//	    -fuzztime 30s -test.fuzzcachedir /root/scratch/fuzzcache
func FuzzScheddReplay(f *testing.F) {
	base, records := replaySeeds(f)
	for _, seed := range append(records, base) {
		for n := 0; n <= len(seed); n++ {
			f.Add(seed[:n])
		}
	}
	f.Fuzz(func(t *testing.T, input []byte) { diffReplay(t, base, input) })
}

// TestReplayMatchesReference runs the awkward spellings through both
// decoders: the cases a fuzzer needs luck for, written down.
func TestReplayMatchesReference(t *testing.T) {
	base, records := replaySeeds(t)
	job := func(edit string) string {
		return `job id=9 owner="u" universe="java" exe="" ad="" prog="" state=idle ckpt=0 relaxed=false submitted=0 finished=0 finalerr=""` + edit
	}
	inputs := []string{
		"", " ", "\n\n", "schedd", "schedd nextID=7 requeues=1 recoveries=2",
		"schedd nextID=7 requeues=1", "schedd nextID=x requeues=1 recoveries=2",
		"schedd nextID=+7 requeues=-0 recoveries=007", "schedd nextID=9223372036854775808 requeues=1 recoveries=2",
		"schedd nextID=1_0 requeues=1 recoveries=2", "schedd nextID=1 nextID=2 requeues=1 recoveries=2 extra=\"x y\"",
		"schedd  nextID=1   requeues=1 recoveries=2 ", "schedd nextID", "schedd =1 nextID=1 requeues=1 recoveries=2",
		"schedd nextID=1 requeues=1 recoveries=2 junk", "schedd a b=1 nextID=1 requeues=1 recoveries=2",
		"bogus x=1", "attempt id=1", "job", job(""), job(" state=running"), job(" state=bogus"), job(" state="),
		job(` owner="a\"b"`), job(` owner="a\\"`), job(` owner="a\`), job(` owner="unterminated`),
		job(` owner=bare`), job(` owner='x'`), job(" owner=`raw`"), job(` owner=""x`), job(` owner="a"b"`),
		job(" owner=\"caf\u00e9\""), job(` owner="caf\u00e9"`), job(" owner=\"bad\xffutf8\""), job(` owner="tab\there"`),
		job(" owner=\"raw\ttab\""), job(` owner="\x41\101\u0041"`), job(` owner="\q"`), job(` relaxed=TRUE`),
		job(` relaxed=1`), job(` relaxed=yes`), job(` ad="[ A = 1 ]"`), job(` ad="[ A = "`), job(` ad="[ A = \"x\" ]"`),
		job(` prog="program class=\"Main\" corrupt=false\n"`), job(` prog="nonsense"`),
		job(` finalerr="a|b"`), job(` finalerr="program|explicit|C|o|m"`), job(` finalerr="nope|explicit|C|o|m"`),
		job("") + "\nattempt id=9 machine=\"m\" start=1 end=2 cpu=3 evicted=false fetch=\"\" lost=\"\" rep=\"\" tru=\"\"",
		job("") + "\nattempt id=9 machine=\"m\" start=1 end=2 cpu=3 evicted=false pre=true fetch=\"\" lost=\"\" rep=\"status = no-result\\n\" tru=\"\"",
		job("") + "\nattempt id=9 machine=\"m\" start=1 end=2 cpu=3 evicted=false pre=maybe fetch=\"\" lost=\"\" rep=\"\" tru=\"\"",
		job("") + "\n" + job("") + "\nreport job=9 disp=complete result=\"\" err=\"\" leak=false",
		"report job=9 disp=nothing result=\"\" err=\"\" leak=false", "report job=9 result=\"\" err=\"\" leak=false",
		"failure machine=\"m\" count=2", "failure machine=\"m\" count=2 last=5", "failure machine=\"m\" count=2 last=x",
		"failure machine=m count=2", "failure count=2",
		"op=submit", "op=submit id=1", "id=1 at=2", "op=bogus id=1 at=2", "op=match id=99 at=2", "op=exec id=1 at=2",
		`op=exec id=1 at=2 machine="m 9"`, `op=exec at=2 machine="m" id=1 id=2`, "op=ckpt id=1 at=2", "op=ckpt id=1 at=2 cpu=-5",
		`op=flock id=1 at=2 level=1`, `op=flock id=1 at=2 level=x to="p"`, "op=final id=1 at=2",
		"op=recover id=1 at=2 trailing", "op=recover id=1 at=2\nop=match id=1 at=3", "op=\"match\" id=1 at=2",
	}
	for _, in := range inputs {
		diffReplay(t, base, []byte(in))
	}
	for _, rec := range append(records, base) {
		diffReplay(t, base, rec)
	}
}

// TestParentJournalReplays recovers a journal captured from an
// earlier commit (the map decoder and per-job ad parse) and
// rebuilds the same scenario here.  The captured journal has no
// history — it predates retirement, so its snapshot still holds the
// terminal jobs and their reports — and it must still recover: under
// this decoder to the queue the reference decoder rebuilds, and, as a
// whole recovery with an empty history, to the queue this tree
// recovers for the same scenario from its own journal and history.
func TestParentJournalReplays(t *testing.T) {
	want, err := os.ReadFile("testdata/schedd-pr16.journal")
	if err != nil {
		t.Fatal(err)
	}
	disk := journal.New()
	disk.SetBytes(want)
	r := disk.Replay()
	if len(r.Snapshot) == 0 || len(r.Entries) == 0 || r.Truncated != 0 {
		t.Fatalf("captured journal: %d snapshot bytes, %d entries, %d torn", len(r.Snapshot), len(r.Entries), r.Truncated)
	}
	ref, got := blankQueue(), blankQueue()
	rp := newReplayer(got)
	if err := ref.refApplySnapshot(r.Snapshot); err != nil {
		t.Fatal(err)
	}
	if err := rp.applySnapshot(r.Snapshot); err != nil {
		t.Fatal(err)
	}
	for i, e := range r.Entries {
		if err := ref.refApplyEntry(e); err != nil {
			t.Fatalf("reference: record %d: %v", i, err)
		}
		if err := rp.applyEntry(e); err != nil {
			t.Fatalf("cursor: record %d: %v", i, err)
		}
	}
	sameVerdict(t, "captured journal", nil, ref, got, nil, nil)

	here := parentJournalScenario(t)
	if here.History().Size() == 0 {
		t.Fatal("the scenario retired no job: the comparison below would not cross the history")
	}
	eng := sim.New(1)
	fresh := NewSchedd(sim.NewBus(eng, 5*time.Millisecond), DefaultParams(), "schedd")
	eng.RunUntil(here.bus.Now())
	fresh.Crash()
	if err := fresh.Recover(disk); err != nil {
		t.Fatalf("recover from the captured journal: %v", err)
	}
	if len(fresh.Jobs()) != len(ref.Jobs()) {
		t.Fatalf("recovered %d jobs, reference %d", len(fresh.Jobs()), len(ref.Jobs()))
	}
	crashRecover(t, here)
	if a, b := queueSummary(fresh), queueSummary(here); a != b {
		t.Errorf("the captured journal and this tree's journal and history recover different queues:\n--- captured ---\n%s--- this tree ---\n%s", a, b)
	}
}
