package daemon

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/errscope/grid/internal/journal"
	"github.com/errscope/grid/internal/jvm"
	"github.com/errscope/grid/internal/scope"
	"github.com/errscope/grid/internal/sim"
)

// retireWorkload is a small mixed pool: Java jobs of every outcome and
// checkpointing Standard Universe jobs on four good machines and a
// black hole, two machines whose owners come and go, and two schedd
// crashes, each recovered from the journals.  Every job is submitted
// up front, so each compaction after that happens in a group-commit
// event.
func retireWorkload(t testing.TB) (*sim.Engine, *Schedd) {
	params := DefaultParams()
	params.CheckpointInterval = 10 * time.Minute
	params.CheckpointOverhead = 15 * time.Second
	hole := goodMachine("hole")
	hole.JVM.BadLibraryPath = true
	eng := sim.New(42)
	bus := sim.NewBus(eng, 5*time.Millisecond)
	NewMatchmaker(bus, params)
	s := NewSchedd(bus, params, "schedd")
	NewStartd(bus, params, hole)
	var churned []*Startd
	for _, name := range []string{"m1", "m 2", "m3", "m4"} {
		churned = append(churned, NewStartd(bus, params, goodMachine(name)))
	}
	for i := 0; i < 5; i++ {
		submitJavaJob(s, jvm.WellBehaved(time.Duration(i+1)*9*time.Minute))
		submitJavaJob(s, jvm.NullPointer())
		submitJavaJob(s, jvm.ExitWith(3, 2*time.Second))
	}
	submitJavaJob(s, jvm.CorruptImage())
	for i := 0; i < 3; i++ {
		submitStandard(s, 40*time.Minute)
	}
	for i, sd := range churned[:3] {
		for at := time.Duration(12+7*i) * time.Minute; at < 3*time.Hour; at += 35 * time.Minute {
			eng.At(sim.Time(at), sd.Evict)
			eng.At(sim.Time(at+8*time.Minute), sd.OwnerLeft)
		}
	}
	for _, at := range []time.Duration{25 * time.Minute, 70 * time.Minute} {
		eng.At(sim.Time(at), func() {
			s.Crash()
			s.bus.After(30*time.Second, func() {
				if err := s.Recover(nil); err != nil {
					t.Errorf("recover: %v", err)
				}
			})
		})
	}
	return eng, s
}

// boundary is the disk at one compaction that retired jobs: the
// journal as the compaction found it (every record appended, nothing
// folded yet), the journal and the history after it, and the offset
// where the history frame it wrote begins.
type boundary struct {
	at             sim.Time
	walBefore      []byte
	walAfter, hist []byte
	frameStart     int
	// admin marks a compaction by the admin verb, not the threshold.
	admin bool
	// uncrashed is what a recovery at this instant must rebuild.
	uncrashed string
}

// retirementBoundaries runs the workload to the end one event at a
// time, with an admin compaction every twenty minutes besides the ones the
// threshold makes, and returns every compaction that retired jobs.
// The journal before a compaction is the journal before it plus the
// open batch, which a compaction flushes first: taken inside the
// admin verb's event, or before the group-commit event whose batch
// is due.  A compaction whose appends do not account for exactly
// that batch (the one inside a Recover's own flush) is skipped.
func retirementBoundaries(t testing.TB) []boundary {
	eng, s := retireWorkload(t)
	var before []byte
	var batch [][]byte
	admin := false
	take := func() {
		before, batch = s.wal.Bytes(), nil
		for _, r := range s.walBuf {
			batch = append(batch, bytes.Clone(r))
		}
	}
	for at := 5 * time.Minute; at < 4*time.Hour; at += 20 * time.Minute {
		eng.At(sim.Time(at), func() {
			if !s.Crashed() {
				take()
				admin = true
				if err := s.ForceCompact(); err != nil {
					t.Error(err)
				}
			}
		})
	}
	var out []boundary
	for eng.Now() < sim.Time(12*time.Hour) && !s.AllTerminal() {
		before, batch, admin = nil, nil, false
		if len(s.walBuf) > 0 && s.walAppends+len(s.walBuf) >= s.compactEvery() {
			take()
		}
		appends, compactions, hist := s.wal.Appends(), s.wal.Compactions(), s.hist.Size()
		if !eng.Step() {
			t.Fatal("the engine ran dry")
		}
		if s.wal.Compactions() == compactions || s.hist.Size() == hist {
			continue
		}
		if before == nil || s.wal.Appends() != appends+len(batch) {
			continue
		}
		pre := journal.New()
		pre.SetBytes(before)
		pre.AppendBatch(batch)
		out = append(out, boundary{at: eng.Now(), walBefore: pre.Bytes(),
			walAfter: s.wal.Bytes(), hist: s.hist.Bytes(), frameStart: hist, admin: admin,
			uncrashed: recoveredFrom(s, eng.Now())})
	}
	if !s.AllTerminal() {
		t.Fatal("the workload did not drain")
	}
	return out
}

// recoveredFrom is what recovering the uncrashed schedd s at now must
// rebuild: every job and report unchanged, except that a job not yet
// terminal restarts idle, its open attempt closed by the crash; the
// retired and live tallies of those jobs; and the requeue count.
func recoveredFrom(s *Schedd, now sim.Time) string {
	var jobs []*Job
	var want Tally
	for _, j := range s.Jobs() {
		if !j.State.Terminal() {
			c := *j
			c.State = JobIdle
			c.Attempts = slices.Clone(j.Attempts)
			if att := c.LastAttempt(); att != nil && att.End == 0 {
				att.End = now
				att.LostContact = shadowDiedErr(s.name)
			}
			j = &c
		}
		jobs = append(jobs, j)
		want.Add(j)
	}
	reports := s.Reports()
	for _, r := range reports {
		if r.IncidentalLeak {
			want.IncidentalLeaks++
		}
	}
	return queueText(jobs, reports, want, s.Requeues)
}

// queueText renders what the boundary oracles compare.
func queueText(jobs []*Job, reports []UserReport, tally Tally, requeues int) string {
	var b strings.Builder
	for _, j := range jobs {
		b.WriteString(jobSummary(j))
	}
	for _, r := range reports {
		fmt.Fprintf(&b, "report job=%d disp=%s result=%q err=%v leak=%t\n",
			r.Job, r.Disposition, r.Result.EncodeString(), r.Err, r.IncidentalLeak)
	}
	fmt.Fprintf(&b, "tally %+v requeues=%d\n", tally, requeues)
	return b.String()
}

// recoverDisk recovers a fresh schedd at now from a journal and a
// history, and renders what it rebuilt.
func recoverDisk(t testing.TB, now sim.Time, wal, hist []byte) string {
	t.Helper()
	return rebuilt(t, recoverAt(t, now, wal, hist))
}

// recoverAt recovers a fresh schedd at now from a journal and a
// history.  Recovery must leave both ending on a record boundary: a
// torn tail left in place would hide every record appended after it
// from the next recovery.
func recoverAt(t testing.TB, now sim.Time, wal, hist []byte) *Schedd {
	t.Helper()
	eng := sim.New(1)
	s := NewSchedd(sim.NewBus(eng, 5*time.Millisecond), DefaultParams(), "schedd")
	eng.RunUntil(now)
	s.Crash()
	s.wal.SetBytes(wal)
	s.hist.SetBytes(hist)
	if err := s.Recover(nil); err != nil {
		t.Fatalf("recover: %v", err)
	}
	if w, h := s.wal.Replay().Truncated, s.hist.Replay().Truncated; w != 0 || h != 0 {
		t.Fatalf("after recovery the journal keeps %d torn bytes and the history %d", w, h)
	}
	return s
}

// rebuilt renders what a recovered schedd holds, checking on the way
// that every terminal job has exactly one report and no other job has
// one.
func rebuilt(t testing.TB, s *Schedd) string {
	t.Helper()
	jobs, reports := s.Jobs(), s.Reports()
	seen := make(map[JobID]int)
	for _, r := range reports {
		seen[r.Job]++
	}
	for _, j := range jobs {
		if want := map[bool]int{true: 1}[j.State.Terminal()]; seen[j.ID] != want {
			t.Fatalf("job %d (%s) has %d reports, want %d", j.ID, j.State, seen[j.ID], want)
		}
	}
	if len(reports) != len(seen) {
		t.Fatalf("%d reports for %d jobs", len(reports), len(seen))
	}
	return queueText(jobs, reports, s.Tally(), s.Requeues)
}

// TestRecoverAtRetirementBoundaries crashes the workload at every
// compaction that retired jobs, three ways — right after the
// compaction, between the history append and the compaction, and with
// the history frame torn (at every byte of the smallest frame, at every
// 61st of the others) — and recovers each.  The snapshot a compaction
// writes must replay to no terminal job and no report, and every
// way must rebuild what the uncrashed schedd holds at that instant:
// each acknowledged job, with its state (non-terminal ones requeued)
// and attempts, one report per terminal job in completion order, and
// the same summary tallies and requeue count.  A recovery from a torn
// frame then runs the next compaction, which retires the jobs the
// journal gave back, and crashes again: the frame it wrote must follow
// the intact ones, so the second recovery rebuilds the same queue.
func TestRecoverAtRetirementBoundaries(t *testing.T) {
	bs := retirementBoundaries(t)
	admin := 0
	for _, b := range bs {
		if b.admin {
			admin++
		}
	}
	if len(bs) < 4 || admin == 0 || admin == len(bs) {
		t.Fatalf("%d retiring compactions, %d by the admin verb: the workload no longer crosses both kinds of boundary", len(bs), admin)
	}
	for i, b := range bs {
		snap, q := journal.Decode(b.walAfter).Snapshot, blankQueue()
		if err := newReplayer(q).applyLines(snap); err != nil || q.nonTerminal != len(q.live) || len(q.reports) != 0 {
			t.Fatalf("boundary %d (%s): the snapshot (%v) still carries a terminal job or a report:\n%s", i, b.at, err, snap)
		}
		if got := recoverDisk(t, b.at, b.walAfter, b.hist); got != b.uncrashed {
			t.Fatalf("boundary %d (%s), crashed after the compaction:\n--- recovered ---\n%s--- uncrashed ---\n%s", i, b.at, got, b.uncrashed)
		}
		if got := recoverDisk(t, b.at, b.walBefore, b.hist); got != b.uncrashed {
			t.Fatalf("boundary %d (%s), crashed between the history append and the compaction:\n--- recovered ---\n%s--- uncrashed ---\n%s", i, b.at, got, b.uncrashed)
		}
	}
	// Tearing the frame is a crash inside the history append: the
	// journal is as the compaction found it.  The smallest frame is
	// torn at every byte, the others at every 61st: all of them at
	// every byte take over a minute.
	smallest := 0
	for i, b := range bs {
		if len(b.hist)-b.frameStart < len(bs[smallest].hist)-bs[smallest].frameStart {
			smallest = i
		}
	}
	for i, b := range bs {
		step := 61
		if i == smallest {
			step = 1
		}
		for n := b.frameStart; n < len(b.hist); n += step {
			s := recoverAt(t, b.at, b.walBefore, b.hist[:n])
			if got := rebuilt(t, s); got != b.uncrashed {
				t.Fatalf("boundary %d (%s), history torn at byte %d of %d:\n--- recovered ---\n%s--- uncrashed ---\n%s", i, b.at, n, len(b.hist), got, b.uncrashed)
			}
			// The recovery's own commit may already have compacted.
			if err := s.ForceCompact(); err != nil {
				t.Fatal(err)
			}
			if s.hist.Size() <= n-journal.Decode(b.hist[:n]).Truncated {
				t.Fatalf("boundary %d (%s), history torn at byte %d: no compaction retired the jobs the journal gave back", i, b.at, n)
			}
			s.Crash()
			if err := s.Recover(nil); err != nil {
				t.Fatalf("boundary %d (%s), history torn at byte %d, second recovery: %v", i, b.at, n, err)
			}
			if got := rebuilt(t, s); got != b.uncrashed {
				t.Fatalf("boundary %d (%s), history torn at byte %d, crashed again after the next compaction:\n--- recovered ---\n%s--- uncrashed ---\n%s", i, b.at, n, got, b.uncrashed)
			}
		}
	}
}

// TestSnapshotReplaysToItself decodes the snapshot of every compaction
// of the workload, before and after its crashes, into an empty queue
// and snapshots that queue again: the bytes must be equal.  Replay logs
// the fields it read from every record it applies, so this holds only
// if it reads every field the writer wrote and the trailer restores
// what the job logs do not.
func TestSnapshotReplaysToItself(t *testing.T) {
	eng, s := retireWorkload(t)
	n := 0
	for eng.Now() < sim.Time(12*time.Hour) && !s.AllTerminal() {
		compactions := s.wal.Compactions()
		if !eng.Step() {
			t.Fatal("the engine ran dry")
		}
		if s.wal.Compactions() == compactions {
			continue
		}
		n++
		snap, q := s.wal.Replay().Snapshot, blankQueue()
		if err := newReplayer(q).applyLines(snap); err != nil {
			t.Fatalf("compaction %d (%s): %v", n, eng.Now(), err)
		}
		if again := q.snapshot(); !bytes.Equal(again, snap) {
			t.Fatalf("compaction %d (%s): the snapshot replays to\n%s\nnot to\n%s", n, eng.Now(), again, snap)
		}
	}
	if n < 4 {
		t.Fatalf("%d compactions: the workload no longer compacts across its crashes", n)
	}
}

// TestCompactRetiresBeforeItFolds takes a compaction of the workload
// apart at its two writes.  The first may write only the history, the
// second only the journal, and a crash after either must recover the
// uncrashed queue: were the journal folded first, a crash between the
// two would lose every job retiring.
func TestCompactRetiresBeforeItFolds(t *testing.T) {
	eng, s := retireWorkload(t)
	for s.Crashed() || len(s.live) == s.nonTerminal || eng.Now() < sim.Time(30*time.Minute) {
		if !eng.Step() {
			t.Fatal("no terminal job ever waited in the queue")
		}
	}
	s.flushBatch()
	now, want := eng.Now(), recoveredFrom(s, eng.Now())
	hist, compactions := s.hist.Size(), s.wal.Compactions()
	s.appendHistory()
	if s.hist.Size() == hist || s.wal.Compactions() != compactions {
		t.Fatalf("first write: history %d -> %d bytes, journal compacted %d times: want only the history written",
			hist, s.hist.Size(), s.wal.Compactions()-compactions)
	}
	if got := recoverDisk(t, now, s.wal.Bytes(), s.hist.Bytes()); got != want {
		t.Fatalf("crashed after the first write:\n--- recovered ---\n%s--- uncrashed ---\n%s", got, want)
	}
	hist = s.hist.Size()
	s.foldJournal()
	if s.hist.Size() != hist || s.wal.Compactions() != compactions+1 {
		t.Fatalf("second write: history %d -> %d bytes, journal compacted %d times: want only the journal folded",
			hist, s.hist.Size(), s.wal.Compactions()-compactions)
	}
	if got := recoverDisk(t, now, s.wal.Bytes(), s.hist.Bytes()); got != want {
		t.Fatalf("crashed after the second write:\n--- recovered ---\n%s--- uncrashed ---\n%s", got, want)
	}
}

// historySeed is a real history and the journal beside it: the
// workload's, drained, with every job retired over several frames.
func historySeed(t testing.TB) (wal, hist []byte) {
	eng, s := retireWorkload(t)
	for eng.Now() < sim.Time(12*time.Hour) && !s.AllTerminal() {
		eng.RunFor(time.Minute)
	}
	if err := s.ForceCompact(); err != nil {
		t.Fatal(err)
	}
	if len(s.live) != 0 || len(s.hist.Replay().Entries) < 3 {
		t.Fatalf("%d jobs still queued, %d history frames", len(s.live), len(s.hist.Replay().Entries))
	}
	return s.wal.Bytes(), s.hist.Bytes()
}

// recoverHistory recovers a fresh schedd from a journal and a history.
func recoverHistory(wal, hist []byte) (*Schedd, error) {
	s := blankQueue()
	s.Crash()
	s.wal.SetBytes(wal)
	s.hist.SetBytes(hist)
	return s, s.Recover(nil)
}

// FuzzHistoryReplay feeds arbitrary bytes to Recover as the history
// beside a real journal — once as the history's raw bytes, and once
// as the payload of one intact frame after a real one, so the fuzzer
// reaches the history grammar past the checksums — and then asks for
// every job, every report and the tallies, so each retired job is
// decoded: nothing may panic, and Job(id) must return the job Jobs
// did.  Seeds: a real history's first frame, that frame with one byte
// flipped, and each frame's payload — frames, not the whole history,
// so the fuzzer's inputs stay small enough to mutate and minimize
// quickly.
//
//	go test ./internal/daemon -run xxx -fuzz '^FuzzHistoryReplay$' \
//	    -fuzztime 30s -test.fuzzcachedir "$TMPDIR/fuzzcache"
func FuzzHistoryReplay(f *testing.F) {
	wal, hist := historySeed(f)
	frames := journal.Decode(hist).Entries
	first := journal.New()
	first.Append(frames[0])
	flipped := first.Bytes()
	flipped[10+len(frames[0])/2] ^= 0x20
	f.Add(first.Bytes())
	f.Add(flipped)
	for _, frame := range frames {
		f.Add(bytes.Clone(frame))
	}
	check := func(t *testing.T, hist []byte) {
		s, err := recoverHistory(wal, hist)
		if err != nil {
			return
		}
		jobs := s.Jobs()
		_, _ = s.Reports(), s.Tally()
		for _, j := range jobs {
			if s.Job(j.ID) != j {
				t.Fatalf("Job(%d) is not the job Jobs returned", j.ID)
			}
		}
	}
	f.Fuzz(func(t *testing.T, input []byte) {
		check(t, input)
		framed := journal.New()
		framed.SetBytes(first.Bytes())
		framed.Append(input)
		check(t, framed.Bytes())
	})
}

// TestHistoryReplayStopsAtCorruptFrame damages one byte inside each
// frame of a real history but the last.  Replay must stop at that
// frame's boundary, as it does in the journal: the jobs and reports of
// the frames before it recover, with the tallies of the last of them,
// and nothing of the damaged frame or any after it does.
func TestHistoryReplayStopsAtCorruptFrame(t *testing.T) {
	wal, hist := historySeed(t)
	whole, err := recoverHistory(wal, hist)
	if err != nil {
		t.Fatal(err)
	}
	frames := journal.Decode(hist).Entries
	off := 0
	for k, frame := range frames {
		if k == len(frames)-1 {
			break
		}
		damaged := bytes.Clone(hist)
		damaged[off+10+len(frame)/2] ^= 0x20
		got, err := recoverHistory(wal, damaged)
		if err != nil {
			t.Fatalf("frame %d damaged: %v", k, err)
		}
		prefix, err := recoverHistory(wal, hist[:off])
		if err != nil {
			t.Fatal(err)
		}
		if g, w := queueText(got.Jobs(), got.Reports(), got.Tally(), got.Requeues),
			queueText(prefix.Jobs(), prefix.Reports(), prefix.Tally(), prefix.Requeues); g != w {
			t.Fatalf("frame %d damaged: recovered\n%s\nthe frames before it recover\n%s", k, g, w)
		}
		if n := len(got.Jobs()); k > 0 && (n == 0 || n >= len(whole.Jobs())) {
			t.Fatalf("frame %d damaged: %d of %d jobs recovered", k, n, len(whole.Jobs()))
		}
		off += 10 + len(frame)
	}
}

// TestHistoryWinsOverTheJournal recovers a retired job's records from
// the journal and the history at once — the disk a crash between the
// history append and the compaction leaves — and checks that the
// history's copy is the one recovered, exactly once, with the
// journal's records of it replayed only for what they did to the
// schedd.
func TestHistoryWinsOverTheJournal(t *testing.T) {
	params := DefaultParams()
	eng, _, s, _, _ := testPool(t, params, goodMachine("m1"))
	submitJavaJob(s, jvm.ExitWith(3, 2*time.Second))
	submitJavaJob(s, jvm.WellBehaved(time.Hour))
	runUntil := func(d time.Duration) {
		for deadline := eng.Now().Add(d); eng.Now() < deadline; {
			eng.RunFor(30 * time.Second)
		}
	}
	runUntil(10 * time.Minute)
	walBefore := s.wal.Bytes()
	if err := s.ForceCompact(); err != nil {
		t.Fatal(err)
	}
	if s.hist.Size() == 0 || len(s.live) != 1 {
		t.Fatalf("history %d bytes, %d live jobs", s.hist.Size(), len(s.live))
	}
	want := recoveredFrom(s, eng.Now())
	got, err := recoverHistory(walBefore, s.hist.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if n := len(got.live); n != 1 {
		t.Fatalf("%d live jobs recovered, want the one still running", n)
	}
	if r := got.retired[1]; r.j != nil || r.run == nil {
		t.Fatal("job 1 was not left in the history undecoded")
	}
	if g := recoverDisk(t, eng.Now(), walBefore, s.hist.Bytes()); g != want {
		t.Fatalf("recovered\n%s\nwant\n%s", g, want)
	}
}

// TestHistoryGrammar recovers hand-made history frames: the spellings
// the writer never produces but the lenient grammar admits recover, and
// the frames that break the grammar refuse the recovery with the
// reason.  A run that indexes but does not replay is left out of Jobs
// and Reports rather than guessed at.
func TestHistoryGrammar(t *testing.T) {
	const tally = "op=history completed=2 unexecutable=0 held=0 leaks=0 attempts=1 fetch=0 lost=0 evictions=0 goodput=3 badput=0 turnaround=10"
	ok := scope.Result{Status: scope.StatusExited}
	run := func(id JobID) string {
		j := &Job{ID: id, Owner: "u", Program: jvm.WellBehaved(time.Second)}
		return strings.Join([]string{string(recSubmit(j)),
			string(recMachineOp("match", id, 1, "m")), string(recMachineOp("exec", id, 1, "m")),
			string(recFinal(jobFinalMsg{Job: id, Machine: "m", CPU: 3, Reported: ok, True: ok}, 5))}, "\n")
	}
	frame := func(lines ...string) []byte {
		j := journal.New()
		j.Append([]byte(strings.Join(lines, "\n") + "\n"))
		return j.Bytes()
	}
	for _, c := range []struct {
		name string
		hist []byte
		err  string // "" to recover
		jobs int
		reps int
	}{
		{"written order", frame(tally, run(2), run(1)), "", 2, 2},
		{"blank lines", frame(tally, "", run(1), "", run(2), ""), "", 2, 2},
		{"id not second", frame(tally, strings.Replace(run(3), "op=submit id=3 at=0", "op=submit at=0 id=3", 1)), "", 1, 1},
		{"run that does not replay", frame(tally, run(1), "op=submit id=2 owner=\"u\""), "", 1, 1},
		{"record that does not replay", frame(tally, run(1)+"\nop=bogus id=1 at=9", run(2)), "", 1, 1},
		{"not a record", frame(tally, "op=submit id=x"), "frame 0: field \"id\"", 0, 0},
		{"unscannable record", frame(tally, `op=submit id="1`), "frame 0: unterminated quote", 0, 0},
		{"no header", frame(run(1)), "frame 0: frame opens with \"op=submit\"", 0, 0},
		{"bad header", frame("op=history completed=x"), "frame 0: field \"completed\"", 0, 0},
		{"unscannable header", frame(`op=history "`), "frame 0: no '='", 0, 0},
		{"record before submit", frame(tally, "op=exec id=1 at=1 machine=\"m\""), "frame 0: exec record of job 1 before its submit", 0, 0},
		{"another job's record inside a run", frame(tally, run(1), "op=relax id=2 at=9"), "frame 0: relax record of job 2 inside job 1's run", 0, 0},
		{"retired twice", frame(tally, run(1), run(1)), "frame 0: job 1 retired twice", 0, 0},
		{"snapshot record", func() []byte { j := journal.New(); j.Compact([]byte(tally), nil); return j.Bytes() }(),
			"snapshot record in the history", 0, 0},
	} {
		s, err := recoverHistory(nil, c.hist)
		if c.err != "" {
			if err == nil || !strings.Contains(err.Error(), c.err) {
				t.Errorf("%s: err = %v, want %q", c.name, err, c.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if n, r := len(s.Jobs()), len(s.Reports()); n != c.jobs || r != c.reps {
			t.Errorf("%s: %d jobs and %d reports, want %d and %d", c.name, n, r, c.jobs, c.reps)
		}
		if tally := s.Tally(); tally.Completed != 2 || tally.Goodput != 3 {
			t.Errorf("%s: tally %+v is not the op=history record's", c.name, tally)
		}
		var last JobID
		for id := range s.retired {
			last = max(last, id)
		}
		if id := s.Submit(&Job{Owner: "u", Ad: NewJavaJobAd("u", 1), Program: jvm.WellBehaved(time.Second)}); id <= last {
			t.Errorf("%s: a new submit got id %d, which the history holds", c.name, id)
		}
	}
}

// TestJobWindowTrimsRetiredJobs: ten thousand jobs pass through the
// queue a few hundred at a time and retire at the compactions; the id
// window spans only the live ids all along, never the retired ones,
// and holds nothing once the last job has retired.
func TestJobWindowTrimsRetiredJobs(t *testing.T) {
	eng := sim.New(1)
	s := NewSchedd(sim.NewBus(eng, time.Millisecond), DefaultParams(), "schedd")
	ok := scope.Result{Status: scope.StatusExited}
	widest, roomiest := 0, 0
	for batch := 0; batch < 40; batch++ {
		var ids []JobID
		for i := 0; i < 250; i++ {
			ids = append(ids, s.Submit(&Job{Owner: "u", Ad: NewJavaJobAd("u", 128), Program: jvm.WellBehaved(time.Second)}))
		}
		for _, id := range ids {
			j := s.jobs.get(id)
			s.setState(j, JobRunning)
			j.Attempts = append(j.Attempts, Attempt{Machine: "m", Start: eng.Now()})
			s.handleFinal(jobFinalMsg{Job: id, Machine: "m", CPU: time.Second, Reported: ok, True: ok})
		}
		if n := len(s.jobs.slots); n > len(s.live) {
			t.Fatalf("batch %d: the window spans %d ids for %d live jobs", batch, n, len(s.live))
		}
		eng.RunFor(time.Second)
		if err := s.ForceCompact(); err != nil {
			t.Fatal(err)
		}
		widest, roomiest = max(widest, len(s.jobs.slots)), max(roomiest, cap(s.jobs.slots))
	}
	if s.nextID != 10000 || len(s.retired) != 10000 || len(s.live) != 0 || len(s.jobs.slots) != 0 || len(s.jobs.far) != 0 {
		t.Fatalf("after 10000 jobs: %d retired, %d live, a window of %d ids and %d far",
			len(s.retired), len(s.live), len(s.jobs.slots), len(s.jobs.far))
	}
	if widest != 0 || roomiest > 1024 {
		t.Errorf("after a compaction the window spanned up to %d ids and held up to %d slots, for no live job",
			widest, roomiest)
	}
}
