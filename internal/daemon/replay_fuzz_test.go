package daemon

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/errscope/grid/internal/jvm"
	"github.com/errscope/grid/internal/scope"
	"github.com/errscope/grid/internal/sim"
)

// blankQueue is a schedd with an empty queue, the state Recover
// resets to before it applies a journal.
func blankQueue() *Schedd {
	return NewSchedd(sim.NewBus(sim.New(1), 5*time.Millisecond), DefaultParams(), "schedd")
}

// queueState is everything a replay rebuilds: each job as jobSummary
// renders it, with the avoidance, flock and preemption fields it
// leaves out; the reports in completion order; the counters and the
// retired tallies; the chronic-failure table; and the idle order.
func queueState(s *Schedd) string {
	var b strings.Builder
	for _, j := range s.Jobs() {
		b.WriteString(jobSummary(j))
		fmt.Fprintf(&b, "  relaxed=%t flock=%q/%d/%d pre=", j.avoidanceRelaxed, j.flockedTo, j.flockLevel, j.flockedAt)
		for _, a := range j.Attempts {
			fmt.Fprintf(&b, "%t,", a.Preempted)
		}
		b.WriteByte('\n')
	}
	for _, r := range s.Reports() {
		fmt.Fprintf(&b, "report job=%d disp=%s result=%q err=%v leak=%t\n",
			r.Job, r.Disposition, r.Result.EncodeString(), r.Err, r.IncidentalLeak)
	}
	fmt.Fprintf(&b, "nextID=%d requeues=%d recoveries=%d tally=%+v\n", s.nextID, s.Requeues, s.Recoveries, s.Tally())
	var machines []string
	for m := range s.machineFailures {
		machines = append(machines, m)
	}
	slices.Sort(machines)
	for _, m := range machines {
		fmt.Fprintf(&b, "failure %q %+v\n", m, s.machineFailures[m])
	}
	for _, j := range s.idleOrder {
		if j != nil {
			fmt.Fprintf(&b, "idle %d\n", j.ID)
		}
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

// replayBase is what every input is applied on top of: an empty queue,
// and the queue the base snapshot rebuilds, each built once by both
// decoders, and the cursor's replayer, whose tables the base warmed.
// An input is applied to copies (cloneQueue), so one replay of the base
// serves every seed.
type replayBase struct {
	emptyRef, empty, ref, got *Schedd
	rp                        *replayer
}

func newReplayBase(t testing.TB, base []byte) replayBase {
	b := replayBase{emptyRef: blankQueue(), empty: blankQueue(), ref: blankQueue(), got: blankQueue()}
	b.rp = newReplayer(b.got)
	if err := b.ref.refApplyLines(base); err != nil {
		t.Fatalf("reference refuses the base snapshot: %v", err)
	}
	if err := b.rp.applyLines(base); err != nil {
		t.Fatalf("cursor refuses the base snapshot: %v", err)
	}
	return b
}

// cloneQueue copies a replayed queue so that a further replay into the
// copy leaves q as it was: every job is copied, and so is every slice
// and map a replay writes.  The copy shares q's bus, which replay does
// not use.
func cloneQueue(q *Schedd) *Schedd {
	c := *q
	c.jobs = jobWindow[Job]{base: q.jobs.base, slots: slices.Clone(q.jobs.slots), far: maps.Clone(q.jobs.far)}
	c.live = make([]*Job, len(q.live))
	for i, j := range q.live {
		cj := *j
		cj.Attempts, cj.Events, cj.log = slices.Clone(j.Attempts), slices.Clone(j.Events), slices.Clone(j.log)
		c.live[i] = &cj
		if w := &c.jobs; j.ID >= w.base && j.ID-w.base < JobID(len(w.slots)) {
			w.slots[j.ID-w.base] = &cj
		} else {
			w.far[j.ID] = &cj
		}
	}
	c.idleOrder = make([]*Job, len(q.idleOrder))
	for i, j := range q.idleOrder {
		if j != nil {
			c.idleOrder[i] = c.jobs.get(j.ID)
		}
	}
	c.flocked = nil
	for _, j := range q.flocked {
		if cj := c.jobs.get(j.ID); cj != nil && cj.inFlocked {
			c.flocked = append(c.flocked, cj)
		}
	}
	c.machineFailures, c.retired = maps.Clone(q.machineFailures), maps.Clone(q.retired)
	c.reports, c.retiredReports, c.histRuns = slices.Clone(q.reports), slices.Clone(q.retiredReports), slices.Clone(q.histRuns)
	return &c
}

// diffReplay feeds one input to the reference decoder and to the
// cursor decoder, twice: as lines of records into an empty queue —
// the snapshot's use, and a retired run's — and as one entry record
// on top of the queue base rebuilds.
func diffReplay(t *testing.T, b replayBase, input []byte) {
	t.Helper()
	ref, got := cloneQueue(b.emptyRef), cloneQueue(b.empty)
	refErr, gotErr := ref.refApplyLines(input), newReplayer(got).applyLines(input)
	sameVerdict(t, "lines", input, ref, got, refErr, gotErr)

	// The cursor's tables only ever hold what passed every check, so
	// what one input adds to them the next may share.
	ref, got = cloneQueue(b.ref), cloneQueue(b.got)
	b.rp.s = got
	refErr, gotErr = ref.refApplyEntry(input), b.rp.applyEntry(input)
	sameVerdict(t, "entry", input, ref, got, refErr, gotErr)
}

// replaySeeds returns a real multi-job snapshot and one real record
// of every kind the schedd writes.  The snapshot comes from a pool
// that ran a mixed workload past a crash and a recovery, taken before
// the compaction retired its terminal jobs, so it holds the logs of
// completed, held-for-retry and unexecutable jobs — closed attempts
// with scoped errors, requeues, recover records — and a trailer with
// blame-table records; the entries the same schedd wrote afterwards
// cover submit, match, exec, final and recover, its history gives an
// op=history record and a retired job's run, and the encoders give the
// rest.
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
	snapshot = bytes.Clone(schedd.snapshot())
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
	// The snapshot's trailer records, the first history frame's
	// op=history record, and one retired job's run as the history
	// holds it: that frame's records up to the next submit.
	for _, line := range bytes.Split(snapshot, []byte{'\n'}) {
		op, _, _ := bytes.Cut(line, []byte{' '})
		if (string(op) == "op=schedd" || string(op) == "op=failure") && !seen[string(op)] {
			seen[string(op)] = true
			records = append(records, line)
		}
	}
	frames := schedd.History().Replay().Entries
	if len(frames) == 0 || !seen["op=schedd"] || !seen["op=failure"] {
		t.Fatalf("seed snapshot and history: %d frames, %v", len(frames), seen)
	}
	tally, run, _ := bytes.Cut(frames[0], []byte{'\n'})
	if next := bytes.Index(run, []byte("\nop=submit ")); next >= 0 {
		run = run[:next+1]
	}
	records = append(records, bytes.Clone(tally), bytes.Clone(run))
	lost := scope.New(scope.ScopeRemoteResource, "LostContact", "machine %s went silent", "m 2")
	records = append(records,
		recCkpt(2, 1234, 90*time.Second),
		recFlock(2, 1500, 1, "negotiator@peer pool"),
		recFlock(2, 1600, 0, ""),
		recEvent("claim-timeout", 1, 99),
		recEvent("claim-denied", 1, 100),
		recEvent("relax", 3, 101),
		recEvent("requeue", 3, 102),
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
// equal queues.  Seeds: a real snapshot, a real record of every kind,
// and every prefix of each.
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
	b := newReplayBase(f, base)
	f.Fuzz(func(t *testing.T, input []byte) { diffReplay(t, b, input) })
}

// TestReplayMatchesReference runs the awkward spellings through both
// decoders: the cases a fuzzer needs luck for, written down.
func TestReplayMatchesReference(t *testing.T) {
	base, records := replaySeeds(t)
	submit := func(edit string) string {
		return `op=submit id=9 at=0 owner="u" universe="java" exe="" ad="" prog=""` + edit
	}
	const final = `op=final id=9 at=5 machine="m" cpu=3 ckpt=0 evicted=false hold=false fetch="" lost="" rep="" tru=""`
	const history = "op=history completed=2 unexecutable=0 held=0 leaks=0 attempts=1 fetch=0 lost=0 evictions=0 goodput=3 badput=0 turnaround=10"
	inputs := []string{
		"", " ", "\n\n", "op=schedd", "op=schedd nextID=7 requeues=1 recoveries=2",
		"op=schedd nextID=7 requeues=1", "op=schedd nextID=x requeues=1 recoveries=2",
		"op=schedd nextID=+7 requeues=-0 recoveries=007", "op=schedd nextID=9223372036854775808 requeues=1 recoveries=2",
		"op=schedd nextID=1_0 requeues=1 recoveries=2", "op=schedd nextID=1 nextID=2 requeues=1 recoveries=2 extra=\"x y\"",
		"op=schedd  nextID=1   requeues=1 recoveries=2 ", "op=schedd nextID", "op=schedd =1 nextID=1 requeues=1 recoveries=2",
		"op=schedd nextID=1 requeues=1 recoveries=2 junk", "op=schedd a b=1 nextID=1 requeues=1 recoveries=2",
		"schedd nextID=7 requeues=1 recoveries=2", "op=\"schedd\" nextID=7 requeues=1 recoveries=2",
		"bogus x=1", "op=attempt id=1 at=2", "op=submit", submit(""), submit(" id=9"), submit(" at=x"),
		submit(` owner="a\"b"`), submit(` owner="a\\"`), submit(` owner="a\`), submit(` owner="unterminated`),
		submit(` owner=bare`), submit(` owner='x'`), submit(" owner=`raw`"), submit(` owner=""x`), submit(` owner="a"b"`),
		submit(" owner=\"caf\u00e9\""), submit(` owner="caf\u00e9"`), submit(" owner=\"bad\xffutf8\""), submit(` owner="tab\there"`),
		submit(" owner=\"raw\ttab\""), submit(` owner="\x41\101\u0041"`), submit(` owner="\q"`),
		submit(` ad="[ A = 1 ]"`), submit(` ad="[ A = "`), submit(` ad="[ A = \"x\" ]"`),
		submit(` prog="program class=\"Main\" corrupt=false\n"`), submit(` prog="nonsense"`),
		submit("") + "\nop=match id=9 at=1", submit("") + "\nop=match id=9 at=1 machine=\"m\"",
		submit("") + "\nop=exec id=9 at=1 machine=\"m\"\n" + final,
		submit("") + "\nop=exec id=9 at=1 machine=\"m\"\n" + final + " pre=true evicted=true",
		submit("") + "\nop=exec id=9 at=1 machine=\"m\"\n" + final + " pre=maybe",
		submit("") + "\nop=exec id=9 at=1 machine=\"m\"\n" + final + ` finalerr="a|b" fetch="program|explicit|C|o|m"`,
		submit("") + "\nop=exec id=9 at=1 machine=\"m\"\n" + final + ` lost="nope|explicit|C|o|m"`,
		submit("") + "\nop=exec id=9 at=1 machine=\"m\"\n" + final + "\nop=requeue id=9 at=7",
		submit("") + "\n" + submit("") + "\nop=relax id=9 at=3",
		submit("") + "\nop=ckpt id=9 at=2 cpu=5\nop=schedd nextID=3 requeues=1 recoveries=0\nop=failure machine=\"m\" count=2 last=4",
		"op=failure machine=\"m\" count=2", "op=failure machine=\"m\" count=2 last=5", "op=failure machine=\"m\" count=2 last=x",
		"op=failure machine=m count=2 last=5", "op=failure count=2 last=5",
		history, history + " completed=x", "op=history completed=2", history + "\n" + submit(""),
		"op=submit id=1", "id=1 at=2", "op=bogus id=1 at=2", "op=match id=99 at=2", "op=match id=1 at=2",
		`op=match id=1 at=2 machine="m 9"`, "op=exec id=1 at=2", `op=exec id=1 at=2 machine="m 9"`,
		`op=exec at=2 machine="m" id=1 id=2`, "op=ckpt id=1 at=2", "op=ckpt id=1 at=2 cpu=-5",
		`op=flock id=1 at=2 level=1`, `op=flock id=1 at=2 level=x to="p"`, "op=final id=1 at=2",
		"op=requeue id=1 at=2", "op=recover id=1 at=2 trailing", "op=recover id=1 at=2\nop=match id=1 at=3",
		"op=\"match\" id=1 at=2",
	}
	b := newReplayBase(t, base)
	want := [2]string{queueState(b.ref), queueState(b.got)}
	for _, in := range inputs {
		diffReplay(t, b, []byte(in))
	}
	for _, rec := range append(records, base) {
		diffReplay(t, b, rec)
	}
	// Every input went to copies: the base queues are as they were.
	if got := [2]string{queueState(b.ref), queueState(b.got)}; got != want {
		t.Errorf("replaying into copies changed the base queues:\n%s\n%s", got[0], got[1])
	}
}
