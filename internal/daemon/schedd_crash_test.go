package daemon

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/errscope/grid/internal/classad"
	"github.com/errscope/grid/internal/journal"
	"github.com/errscope/grid/internal/jvm"
	"github.com/errscope/grid/internal/scope"
	"github.com/errscope/grid/internal/sim"
)

// jobSummary flattens everything the journal must preserve about a
// job — its ad and program included — into one comparable string.  It
// is built with strconv rather than fmt: the crash oracles render
// every job of thousands of recovered queues.
func jobSummary(j *Job) string {
	ad := "<nil>"
	if j.Ad != nil {
		ad = j.Ad.String()
	}
	b := make([]byte, 0, 512)
	b = strconv.AppendInt(append(b, "id="...), int64(j.ID), 10)
	b = append(append(append(append(b, " owner="...), j.Owner...), " universe="...), j.Universe...)
	b = append(append(append(append(b, " exe="...), j.Executable...), " state="...), j.State.String()...)
	b = append(append(b, " ckpt="...), j.CheckpointCPU.String()...)
	b = strconv.AppendInt(append(b, " submitted="...), int64(j.Submitted), 10)
	b = strconv.AppendInt(append(b, " finished="...), int64(j.Finished), 10)
	b = append(append(b, " finalerr="...), errString(j.FinalErr)...)
	b = append(append(b, " ad="...), ad...)
	b = strconv.AppendQuote(append(b, " prog="...), jvm.EncodeProgram(j.Program))
	b = append(b, '\n')
	for i, a := range j.Attempts {
		b = strconv.AppendInt(append(b, "  att"...), int64(i), 10)
		b = append(append(b, " machine="...), a.Machine...)
		b = strconv.AppendInt(append(b, " start="...), int64(a.Start), 10)
		b = strconv.AppendInt(append(b, " end="...), int64(a.End), 10)
		b = append(append(b, " cpu="...), a.CPU.String()...)
		b = strconv.AppendBool(append(b, " evicted="...), a.Evicted)
		b = append(append(b, " fetch="...), errString(a.FetchError)...)
		b = append(append(b, " lost="...), errString(a.LostContact)...)
		b = strconv.AppendQuote(append(b, " rep="...), a.Reported.EncodeString())
		b = strconv.AppendQuote(append(b, " tru="...), a.True.EncodeString())
		b = append(b, '\n')
	}
	return string(b)
}

// errString is what %v prints for an error.
func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

func queueSummary(s *Schedd) string {
	var b strings.Builder
	for _, j := range s.Jobs() {
		b.WriteString(jobSummary(j))
	}
	for _, r := range s.Reports() {
		fmt.Fprintf(&b, "report job=%d disp=%s result=%q err=%v leak=%t\n",
			r.Job, r.Disposition, r.Result.EncodeString(), r.Err, r.IncidentalLeak)
	}
	return b.String()
}

// TestScheddCrashRecoverPhases crashes the schedd at several points
// of a job's life — idle, matched/claimed, executing, result in
// flight — and recovers it from the journal.  In every phase the job
// must reach the same terminal disposition the no-crash baseline
// reaches: completed, reported once, nothing leaked.
func TestScheddCrashRecoverPhases(t *testing.T) {
	phases := []struct {
		name    string
		crashAt time.Duration
	}{
		{"idle", 30 * time.Second},
		{"claimed", 61 * time.Second},
		{"executing", 90 * time.Second},
		{"result-in-flight", 2*time.Minute + 1*time.Second},
	}
	for _, ph := range phases {
		t.Run(ph.name, func(t *testing.T) {
			params := DefaultParams()
			params.ChronicFailureThreshold = 1
			big := MachineConfig{Name: "big", Memory: 4096, AdvertiseJava: true}
			small := MachineConfig{Name: "small", Memory: 1024, AdvertiseJava: true}
			eng, _, schedd, _, _ := testPool(t, params, big, small)

			id := submitJavaJob(schedd, jvm.WellBehaved(time.Minute))
			eng.After(ph.crashAt, func() { schedd.Crash() })
			eng.After(ph.crashAt+2*time.Minute, func() {
				if err := schedd.Recover(nil); err != nil {
					t.Errorf("recover: %v", err)
				}
			})
			runUntilDone(t, eng, schedd, 24*time.Hour)

			j := schedd.Job(id)
			if j == nil {
				t.Fatal("job lost across recovery")
			}
			if j.State != JobCompleted {
				t.Fatalf("state = %v, err = %v", j.State, j.FinalErr)
			}
			if schedd.Recoveries != 1 {
				t.Errorf("recoveries = %d", schedd.Recoveries)
			}
			if len(schedd.Reports()) != 1 {
				t.Fatalf("reports = %+v", schedd.Reports())
			}
			rep := schedd.Reports()[0]
			if rep.Disposition != scope.DispositionComplete || rep.IncidentalLeak {
				t.Errorf("report = %+v", rep)
			}
			if res := rep.Result; res.Err() != nil {
				t.Errorf("result = %v", res.Err())
			}
		})
	}
}

// TestScheddCrashClosesOpenAttempt verifies that recovery records the
// shadow's death against the attempt it orphaned: the reopened queue
// must show a first attempt ended by a local-resource ShadowDied
// error, and the retry must land elsewhere because avoidance blames
// the contact loss on the stale machine state, not the program.
func TestScheddCrashClosesOpenAttempt(t *testing.T) {
	params := DefaultParams()
	params.ChronicFailureThreshold = 1
	big := MachineConfig{Name: "big", Memory: 4096, AdvertiseJava: true}
	small := MachineConfig{Name: "small", Memory: 1024, AdvertiseJava: true}
	eng, _, schedd, _, startds := testPool(t, params, big, small)

	id := submitJavaJob(schedd, jvm.WellBehaved(20*time.Minute))
	eng.After(90*time.Second, func() { schedd.Crash() })
	eng.After(3*time.Minute+30*time.Second, func() { schedd.Recover(nil) })
	runUntilDone(t, eng, schedd, 4*time.Hour)

	j := schedd.Job(id)
	if j.State != JobCompleted {
		t.Fatalf("state = %v, err = %v", j.State, j.FinalErr)
	}
	if len(j.Attempts) < 2 {
		t.Fatalf("attempts = %d", len(j.Attempts))
	}
	first := j.Attempts[0]
	if first.Machine != "big" || first.End == 0 {
		t.Fatalf("first attempt = %+v", first)
	}
	se, _ := scope.AsError(first.LostContact)
	if se == nil || se.Code != "ShadowDied" || se.Scope != scope.ScopeLocalResource {
		t.Errorf("lost contact = %v", first.LostContact)
	}
	if last := j.LastAttempt(); last.Machine != "small" {
		t.Errorf("retry landed on %s", last.Machine)
	}
	// The abandoned claim on big is released by lease expiry, not by
	// anything the recovered schedd does.
	if startds[0].LeasesExpired != 1 {
		t.Errorf("big lease expiries = %d", startds[0].LeasesExpired)
	}
}

// TestScheddJournalReplayEquality runs a workload to completion,
// crashes the schedd, and recovers it: the rebuilt queue — states,
// attempts, results, reports — must be field-for-field identical to
// the pre-crash queue, because terminal jobs are beyond the reach of
// recovery normalization.  Enough jobs run that the journal compacts
// at least once, so the snapshot codec is on the replayed path.
func TestScheddJournalReplayEquality(t *testing.T) {
	params := DefaultParams()
	machines := []MachineConfig{
		goodMachine("m1"), goodMachine("m2"), goodMachine("m3"), goodMachine("m4"),
	}
	eng, _, schedd, _, _ := testPool(t, params, machines...)

	for i := 0; i < 24; i++ {
		switch i % 3 {
		case 0:
			submitJavaJob(schedd, jvm.WellBehaved(time.Duration(i+1)*time.Second))
		case 1:
			submitJavaJob(schedd, jvm.NullPointer())
		default:
			submitJavaJob(schedd, jvm.ExitWith(3, 2*time.Second))
		}
	}
	runUntilDone(t, eng, schedd, 24*time.Hour)

	if schedd.Journal().Compactions() == 0 {
		t.Fatalf("journal never compacted: %d appends", schedd.Journal().Appends())
	}
	before := queueSummary(schedd)
	schedd.Crash()
	if !schedd.Crashed() {
		t.Fatal("Crashed() = false after Crash")
	}
	if err := schedd.Recover(nil); err != nil {
		t.Fatalf("recover: %v", err)
	}
	after := queueSummary(schedd)
	if before != after {
		t.Errorf("queue diverged across replay:\n--- before ---\n%s--- after ---\n%s", before, after)
	}
}

// crashRecover takes the schedd down and brings it back from its own
// journal.
func crashRecover(t *testing.T, s *Schedd) {
	t.Helper()
	s.Crash()
	if err := s.Recover(nil); err != nil {
		t.Fatalf("recover: %v", err)
	}
}

// TestReplayKeepsAdsDistinct queues jobs whose ads differ in as little
// as replay could overlook — one attribute's value, or one character
// that the journal writes escaped (quote, backslash, newline, tab,
// non-ASCII, and the two-character spellings those escapes look like)
// — and recovers the queue twice: from the submit records and from a
// snapshot.  A replay that keyed its ad table on the wrong text, or
// took the escape-free path for a value that needed unescaping, would
// hand a job its neighbour's ad.
func TestReplayKeepsAdsDistinct(t *testing.T) {
	_, _, schedd, _, _ := testPool(t, DefaultParams(), goodMachine("m1"))
	submit := func(edit func(ad *classad.Ad)) JobID {
		ad := NewJavaJobAd("alice", 128)
		edit(ad)
		return schedd.Submit(&Job{Owner: "alice", Ad: ad, Program: jvm.WellBehaved(time.Minute)})
	}
	submit(func(ad *classad.Ad) {})
	submit(func(ad *classad.Ad) {}) // byte-identical to the first: the table's hit
	submit(func(ad *classad.Ad) { ad.SetInt("ImageSize", 129) })
	for _, note := range []string{
		`plain`, `a"b`, `a\b`, "a\nb", `a\nb`, "a\tb", `a\tb`, "caf\u00e9", `caf\u00e9`, "a\x7fb", "a b", "a  b",
	} {
		submit(func(ad *classad.Ad) { ad.SetString("Note", note) })
	}
	before := queueSummary(schedd)

	check := func(when string) {
		t.Helper()
		if after := queueSummary(schedd); after != before {
			t.Fatalf("%s: queue diverged across replay:\n--- before ---\n%s--- after ---\n%s", when, before, after)
		}
		// Every rebuilt job owns its ad: editing one changes neither
		// its byte-identical neighbour nor anybody else.
		jobs := schedd.Jobs()
		seen := make(map[*classad.Ad]JobID)
		for _, j := range jobs {
			if prev, dup := seen[j.Ad]; dup {
				t.Fatalf("%s: jobs %d and %d share one *Ad", when, prev, j.ID)
			}
			seen[j.Ad] = j.ID
		}
		want := jobs[1].Ad.String()
		jobs[0].Ad.SetInt("Scratch", 1)
		if got := jobs[1].Ad.String(); got != want {
			t.Fatalf("%s: editing job 1's ad changed job 2's: %s", when, got)
		}
		jobs[0].Ad.Delete("Scratch")
	}
	crashRecover(t, schedd)
	check("from submit records")
	if err := schedd.ForceCompact(); err != nil {
		t.Fatal(err)
	}
	crashRecover(t, schedd)
	check("from a snapshot")
}

// TestRecoveryKeepsSubmittedAdAttributes pins what a submitter puts
// in the ad before Submit: a Java job declaring OutageTolerance keeps
// it across a crash taken before a compaction (replayed from the
// submit record in the journal) and after one (replayed from the
// submit record in the snapshot).
func TestRecoveryKeepsSubmittedAdAttributes(t *testing.T) {
	_, _, schedd, _, _ := testPool(t, DefaultParams(), goodMachine("m1"))
	ad := NewJavaJobAd("alice", 128)
	ad.SetInt("OutageTolerance", 7200)
	id := schedd.Submit(&Job{Owner: "alice", Ad: ad, Program: jvm.WellBehaved(time.Minute)})
	if got := schedd.Job(id).OutageTolerance(); got != 2*time.Hour {
		t.Fatalf("before any crash: OutageTolerance = %v", got)
	}
	crashRecover(t, schedd)
	if got := schedd.Job(id).OutageTolerance(); got != 2*time.Hour {
		t.Errorf("after a crash before compaction: OutageTolerance = %v, want 2h", got)
	}
	if err := schedd.ForceCompact(); err != nil {
		t.Fatal(err)
	}
	crashRecover(t, schedd)
	if got := schedd.Job(id).OutageTolerance(); got != 2*time.Hour {
		t.Errorf("after a crash after compaction: OutageTolerance = %v, want 2h", got)
	}
}

// TestScheddTornTailRecovery rips bytes off the end of the journal —
// the write a crash cut short — and recovers.  The half-written
// record is dropped at a record boundary, the job falls back to the
// last durable state, and the retry still carries it to completion.
func TestScheddTornTailRecovery(t *testing.T) {
	params := DefaultParams()
	eng, _, schedd, _, _ := testPool(t, params, goodMachine("m1"), goodMachine("m2"))

	id := submitJavaJob(schedd, jvm.WellBehaved(time.Minute))
	eng.After(90*time.Second, func() {
		schedd.Crash()
		wal := schedd.Journal()
		b := wal.Bytes()
		wal.SetBytes(b[:len(b)-3])
		if err := schedd.Recover(nil); err != nil {
			t.Errorf("recover: %v", err)
		}
	})
	runUntilDone(t, eng, schedd, 24*time.Hour)

	j := schedd.Job(id)
	if j == nil || j.State != JobCompleted {
		t.Fatalf("job = %+v", j)
	}
	if len(schedd.Reports()) != 1 || schedd.Reports()[0].Disposition != scope.DispositionComplete {
		t.Errorf("reports = %+v", schedd.Reports())
	}
}

// TestLeaseExpiryFreesOrphanedClaim crashes the schedd mid-execution
// and never recovers it.  The execute side must notice on its own:
// with renewals stopped, the startd's claim lease expires within one
// lease duration of the grant and the machine returns to unclaimed —
// no CPU is held hostage by a dead submit point.
func TestLeaseExpiryFreesOrphanedClaim(t *testing.T) {
	params := DefaultParams()
	eng, _, schedd, _, startds := testPool(t, params, goodMachine("m1"))

	submitJavaJob(schedd, jvm.WellBehaved(30*time.Minute))
	// The claim is granted just after the 60s negotiation; crash
	// before the first 2-minute lease renewal so none is ever sent.
	eng.After(2*time.Minute, func() { schedd.Crash() })

	// One lease duration after the grant, plus slack for the check
	// timer, the claim must be gone.
	eng.RunFor(2*time.Minute + leaseDuration + 10*time.Second)
	sd := startds[0]
	if sd.LeasesExpired != 1 {
		t.Fatalf("lease expiries = %d", sd.LeasesExpired)
	}
	if sd.State() != StartdUnclaimed {
		t.Errorf("startd state = %v, want unclaimed", sd.State())
	}
}

// TestStaleTimersFencedAfterRecovery crashes the schedd in the narrow
// window between the match notification and the claim grant, then
// recovers almost immediately — while the pre-crash claim-timeout
// timer is still pending.  The epoch fence must keep that stale timer
// from journaling or mutating anything in the recovered queue.
func TestStaleTimersFencedAfterRecovery(t *testing.T) {
	params := DefaultParams()
	eng, _, schedd, _, _ := testPool(t, params, goodMachine("m1"), goodMachine("m2"))

	id := submitJavaJob(schedd, jvm.WellBehaved(time.Minute))
	// Match notify lands at ~60.005s; the claim grant at ~60.015s.
	eng.After(time.Minute+10*time.Millisecond, func() { schedd.Crash() })
	eng.After(time.Minute+20*time.Millisecond, func() { schedd.Recover(nil) })
	runUntilDone(t, eng, schedd, 24*time.Hour)

	j := schedd.Job(id)
	if j.State != JobCompleted {
		t.Fatalf("state = %v, err = %v", j.State, j.FinalErr)
	}
	// The stale timer from before the crash must not have fired into
	// the journal: no claim-timeout record may exist, because the
	// recovered incarnation's own claim succeeded.
	for _, e := range schedd.Journal().Replay().Entries {
		if strings.HasPrefix(string(e), "op=claim-timeout") {
			t.Errorf("stale claim timeout journaled: %q", e)
		}
	}
}

// TestRecoverIntoFreshSchedd replays one schedd's journal into a
// brand-new schedd process on a different engine — the "new machine,
// same disk" restart.  The rebuilt queue must match the original.
func TestRecoverIntoFreshSchedd(t *testing.T) {
	params := DefaultParams()
	eng, _, schedd, _, _ := testPool(t, params, goodMachine("m1"))
	submitJavaJob(schedd, jvm.WellBehaved(time.Minute))
	submitJavaJob(schedd, jvm.NullPointer())
	runUntilDone(t, eng, schedd, 24*time.Hour)

	disk := journal.New()
	disk.SetBytes(schedd.Journal().Bytes())

	eng2 := sim.New(7)
	bus2 := sim.NewBus(eng2, 5*time.Millisecond)
	fresh := NewSchedd(bus2, params, "schedd")
	fresh.Crash()
	if err := fresh.Recover(disk); err != nil {
		t.Fatalf("recover from handed-off journal: %v", err)
	}
	if got, want := queueSummary(fresh), queueSummary(schedd); got != want {
		t.Errorf("fresh schedd queue differs:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
}

// TestRecoverGuards pins the API edges: Recover on a live schedd is
// an error, Crash is idempotent, and Crashed reflects the state.
func TestRecoverGuards(t *testing.T) {
	params := DefaultParams()
	_, _, schedd, _, _ := testPool(t, params, goodMachine("m1"))

	if err := schedd.Recover(nil); err == nil {
		t.Error("Recover on a running schedd should fail")
	}
	if schedd.Crashed() {
		t.Error("Crashed() = true before Crash")
	}
	schedd.Crash()
	schedd.Crash() // idempotent
	if !schedd.Crashed() {
		t.Error("Crashed() = false after Crash")
	}
	if err := schedd.Recover(nil); err != nil {
		t.Fatalf("recover: %v", err)
	}
	if schedd.Crashed() {
		t.Error("Crashed() = true after Recover")
	}
}
