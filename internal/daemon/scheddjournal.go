package daemon

// Submit-side crash durability (Section 4: the schedd is the job
// queue's home, and the queue must outlive the process).  Every queue
// transition is appended to a write-ahead journal before it is acted
// on; Crash tears the process down mid-flight, and Recover rebuilds
// the queue by replaying the journal, requeueing jobs whose shadows
// died with the schedd.
//
// The schedd's disk speaks one record language: a record is one
// key=value line, "op=<op> ...", written with package record's quoter
// and read back by applyEntry (scheddreplay.go), the one decoder.  The
// journal holds one record per transition.  Each live job also keeps
// its own records, in order, in its log (Job.log), so the periodic
// compaction folds the journal into a snapshot that is every live
// job's log in id order followed by the schedd's counters and failure
// table (op=schedd, op=failure).  At each compaction every terminal job
// first retires: one history frame, an op=history tally record and
// then each retiring job's log in completion order, goes to an
// append-only history journal (Condor's history file), and the
// snapshot that follows omits those jobs.  So compaction and recovery
// cost what is still queued, not everything ever submitted, and a
// torn tail truncates at a record boundary (package journal).
//
// Deliberately not persisted: per-job event logs and the transient
// counters (MatchesReceived, MatchesDeclined, ClaimsFailed) — they
// are telemetry about the dead process, not queue state — and the
// claim sequence numbers, whose timers died with the process and are
// fenced off by the epoch check on recovery.  Flock state is journaled
// (flock records), but recovery resets every job to its home pool
// (normalizeJob), because the remote advertisement is exactly what a
// crash invalidates.

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"github.com/errscope/grid/internal/journal"
	"github.com/errscope/grid/internal/jvm"
	"github.com/errscope/grid/internal/obs"
	"github.com/errscope/grid/internal/record"
	"github.com/errscope/grid/internal/scope"
	"github.com/errscope/grid/internal/sim"
)

// walCompactEvery is the floor of the compaction threshold: a log
// shorter than this many records is never folded into a snapshot.
const walCompactEvery = 64

// Journal exposes the schedd's write-ahead journal — the durable
// storage a recovery replays.  Tests and fault injectors read it from
// the "disk" of a crashed schedd.
func (s *Schedd) Journal() *journal.Journal { return s.wal }

// History exposes the journal retired jobs move to.  It is never
// compacted, and a crash keeps it as it keeps the write-ahead journal.
func (s *Schedd) History() *journal.Journal { return s.hist }

// Crashed reports whether the schedd is currently down.
func (s *Schedd) Crashed() bool { return s.crashed }

// journalAppend writes one record of job j ahead of the transition it
// describes.  log is j's log with the record appended by one of the
// rec* encoders: it becomes j's log, and the record joins the open
// batch as a slice of it whose capacity ends with the record, so no
// later append to the log can write into a batched record.  The group
// commit is scheduled for the end of the current instant, deferring
// every outgoing send behind it (see commitWAL).
func (s *Schedd) journalAppend(j *Job, log []byte) {
	start, end := len(j.log), len(log)
	j.log = append(log, '\n')
	s.walBuf = append(s.walBuf, j.log[start:end:end])
	if !s.commitArmed {
		s.commitArmed = true
		epoch := s.epoch
		// After(0) fires at the current instant but after every event
		// already queued for it — in particular after the rest of
		// this negotiation cycle's deliveries — so one commit batches
		// the whole cycle's transitions.
		s.bus.After(0, func() { s.commitWAL(epoch) })
	}
}

// compactEvery is the adaptive compaction threshold: at least
// walCompactEvery, but grown with the live queue — the jobs a
// snapshot writes.  A fixed threshold makes a big queue re-serialize
// itself every 64 transitions — O(queue²) journal work over a run —
// while a proportional one keeps compaction amortized O(1) per
// transition.  Retired jobs are not counted: no snapshot writes them.
// The multiplier trades recovery replay length against snapshot
// traffic; at 4x the run-long journal cost stays O(1) per transition
// with half the 2x multiplier's snapshot bytes.
func (s *Schedd) compactEvery() int {
	if n := 4 * len(s.live); n > walCompactEvery {
		return n
	}
	return walCompactEvery
}

// commitWAL closes the open batch: the buffered records become
// durable as one batched append, and when the log is due the
// compaction follows.  Only then do the deferred sends go out, in
// order.  The epoch fence drops commits armed before a crash: the
// buffer and outbox are process memory, and losing them at a crash is
// exactly the semantics the group-commit crash test pins.
func (s *Schedd) commitWAL(epoch int) {
	if s.crashed || epoch != s.epoch {
		return
	}
	s.commitArmed = false
	if len(s.walBuf) > 0 {
		s.flushBatch()
		if s.walAppends >= s.compactEvery() {
			s.compact()
		}
	}
	for i := range s.outbox {
		p := s.outbox[i]
		s.outbox[i] = pendingSend{}
		s.bus.Send(s.name, p.to, p.kind, p.body)
	}
	s.outbox = s.outbox[:0]
}

// flushBatch appends the open batch to the write-ahead journal.
func (s *Schedd) flushBatch() {
	s.wal.AppendBatch(s.walBuf)
	s.walAppends += len(s.walBuf)
	clear(s.walBuf)
	s.walBuf = s.walBuf[:0]
}

// compact retires every terminal job to the history (its first
// write), then folds the write-ahead journal into a snapshot of the
// live queue (its second).  The order is the durability argument:
// every record is already in the journal, so a crash before the
// history append replays the journal, a crash after it finds the
// retired jobs in both and lets the history win, and a crash after the
// snapshot finds each job in exactly one place.
func (s *Schedd) compact() {
	s.retire()
	s.foldJournal()
}

// foldJournal is a compaction's second write: the write-ahead journal
// is replaced by a snapshot of the live queue.
func (s *Schedd) foldJournal() {
	s.wal.Compact(s.snapshotSize(), s.appendSnapshot)
	s.walAppends = 0
}

// ForceCompact compacts now, without waiting for the adaptive
// threshold — the ops-plane `compact` verb.  Any buffered group-commit
// records are appended first; the sends deferred behind them still
// flush at the armed commit (durability is only ever strengthened
// here, never weakened).  On a crashed schedd the verb escapes to the
// caller as a local-resource error naming the daemon it touched.
func (s *Schedd) ForceCompact() error {
	if s.crashed {
		e := scope.New(scope.ScopeLocalResource, "ScheddDown",
			"cannot compact %s: the schedd is down", s.name)
		return e.WithOrigin(s.name)
	}
	s.flushBatch()
	s.compact()
	if s.tr.Enabled() {
		s.tr.Emit(obs.Event{T: int64(s.bus.Now()), Comp: s.name,
			Kind: obs.KindState, Code: "wal-compacted",
			Detail: "admin compact: journal folded into a snapshot"})
	}
	return nil
}

// Crash takes the schedd process down: the advertisement ticker
// stops, pending timers are fenced off by the epoch bump, the shadows
// — child processes — die silently, and the actor leaves the bus.
// The journals survive; they are the disk, not the process.  The
// retired jobs held in memory go with the process, as the queue does:
// Recover rebuilds the queue and indexes the history, and replays a
// retired job's run only when asked for it.
func (s *Schedd) Crash() {
	if s.crashed {
		return
	}
	s.crashed = true
	s.epoch++
	// The open group-commit batch is process memory: records not yet
	// appended, and the sends that were waiting on them, die with the
	// process.  Nothing externally visible happened for them — that
	// is the whole point of deferring the sends.
	s.commitArmed = false
	clear(s.walBuf)
	s.walBuf = s.walBuf[:0]
	clear(s.outbox)
	s.outbox = s.outbox[:0]
	if s.stopAds != nil {
		s.stopAds()
		s.stopAds = nil
	}
	s.tr.Count("schedd.crashes", 1)
	if s.tr.Enabled() {
		s.tr.Emit(obs.Event{T: int64(s.bus.Now()), Comp: s.name,
			Kind: obs.KindState, Code: "crashed"})
	}
	// The execute side is not informed: running machines discover the
	// loss when the claim lease expires with no shadow to renew it.
	ids := make([]JobID, 0, len(s.shadows))
	for id := range s.shadows {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		s.shadows[id].kill()
	}
	clear(s.shadows)
	s.bus.Unregister(s.name)
}

// Recover restarts a crashed schedd from a journal — its own by
// default, or an explicit one standing in for the recovered disk —
// and its history.  A torn tail is cut off both before anything is
// appended to them.  The history is indexed, not decoded: its frames
// are checked, each retired job's run found and the retired tallies
// taken from the last frame's op=history record.  The live queue is
// rebuilt by replaying the snapshot's records and then every surviving
// journal record, skipping whatever the history holds; jobs that were
// in flight when the process died are closed out with a local-resource
// ShadowDied error and requeued.
func (s *Schedd) Recover(from *journal.Journal) error {
	if !s.crashed {
		return fmt.Errorf("schedd %s: recover without a crash", s.name)
	}
	if from == nil {
		from = s.wal
	}
	// r's payloads are the journal's own bytes, which a compaction
	// writes over: applyEntry copies what it keeps, and r is used up
	// before the commit that ends Recover.
	r := from.Intact()

	s.wal = from
	s.walAppends = len(r.Entries)
	// The snapshot holds one submit record per live job: size the
	// queue for them before replay grows it.
	queued := bytes.Count(r.Snapshot, []byte("\nop=submit "))
	if bytes.HasPrefix(r.Snapshot, []byte("op=submit ")) {
		queued++
	}
	s.jobs = jobWindow[Job]{slots: make([]*Job, 0, queued)}
	s.live = make([]*Job, 0, queued)
	s.nextID = 0
	s.shadowSeq = 0
	s.shadows = make(map[JobID]*Shadow)
	s.machineFailures = make(map[string]failureRecord)
	s.avoidedCache, s.avoidedDirty = nil, true
	s.idleOrder, s.idleStale, s.nonTerminal = make([]*Job, 0, queued), 0, 0
	s.flocked = nil
	s.reports, s.doneTally = nil, Tally{}
	s.Requeues = 0
	s.MatchesReceived, s.MatchesDeclined, s.ClaimsFailed = 0, 0, 0
	// A new incarnation: every channel's first message is full, so each
	// negotiator forgets what the dead process left there.
	s.incarnation++
	s.links = nil

	rp := newReplayer(s)
	if err := rp.readHistory(s.hist.Intact()); err != nil {
		return fmt.Errorf("schedd %s: history: %w", s.name, err)
	}
	if len(r.Snapshot) > 0 {
		if err := rp.applyLines(r.Snapshot); err != nil {
			return fmt.Errorf("schedd %s: snapshot: %w", s.name, err)
		}
	}
	for i, e := range r.Entries {
		if err := rp.applyEntry(e); err != nil {
			return fmt.Errorf("schedd %s: record %d: %w", s.name, i, err)
		}
	}
	// An id the history holds is never handed out again, even if the
	// journal lost the records that would say so.
	s.nextID = max(s.nextID, rp.lastRetired)

	s.crashed = false
	s.bus.Register(s.name, s)
	s.stopAds = s.bus.Every(s.params.AdInterval, s.advertiseIdle)
	s.Recoveries++
	s.tr.Count("schedd.recoveries", 1)
	now := s.bus.Now()
	if s.tr.Enabled() {
		s.tr.Emit(obs.Event{T: int64(now), Comp: s.name, Kind: obs.KindRecovery,
			Value: int64(r.Records),
			Detail: fmt.Sprintf("replayed %d records, %d snapshot bytes, %d torn bytes dropped",
				r.Records, len(r.Snapshot), r.Truncated)})
	}

	// Normalize the rebuilt queue: any non-terminal job lost whatever
	// was serving it (shadow, claim, matchmaker entry) with the
	// process, so it restarts from idle.  The normalization itself is
	// journaled so a second crash replays to the same place, and the
	// re-advertisement goes home as the new incarnation's first
	// message, full.
	for _, j := range s.live {
		if j.State.Terminal() {
			continue
		}
		open := j.LastAttempt() != nil && j.LastAttempt().End == 0
		s.journalAppend(j, recEvent(j.log, "recover", j.ID, now))
		s.normalizeJob(j, now)
		if open {
			// The shadow died mid-attempt.  The machine is blameless —
			// the submit side failed — so the chronic-failure table is
			// untouched.
			died := j.LastAttempt().LostContact
			if s.tr.Enabled() {
				s.tr.Emit(errorEvent(int64(now), s.name, j.ID, died))
			}
			s.logEvent(j, EventShadowVanished, "%v", died)
		}
		s.logEvent(j, EventRecovered, "queue rebuilt from journal")
	}
	if s.idleCount() > 0 {
		s.sendAds(s.params.matchmaker(), false, nil)
	}
	// Recovery is complete only when its normalization records are on
	// disk; flush the batch before handing the queue back.
	s.commitWAL(s.epoch)
	return nil
}

// normalizeJob requeues one non-terminal job after recovery: an open
// attempt is closed with the ShadowDied error, and the job returns to
// idle.  Replay of a recover record applies the same function.
func (s *Schedd) normalizeJob(j *Job, at sim.Time) {
	if att := j.LastAttempt(); att != nil && att.End == 0 {
		att.End = at
		att.LostContact = shadowDiedErr(s.name)
	}
	// A flock arrangement — an advertisement standing at a peer
	// negotiator — died with the process; the rebuilt job starts over
	// from its home pool.
	s.resetFlock(j)
	if !j.State.Terminal() {
		s.setState(j, JobIdle)
	}
}

// shadowDiedErr is the error charged to an attempt orphaned by a
// schedd crash: the loss is on the submit side's local resources, and
// it escaped the dead process rather than being raised by it.
func shadowDiedErr(schedd string) *scope.Error {
	e := scope.New(scope.ScopeLocalResource, "ShadowDied",
		"the schedd crashed and took the job's shadow with it")
	e.Kind = scope.KindEscaping
	return e.WithOrigin(schedd)
}

// --- record encoding -------------------------------------------------

// The rec* encoders append one record, without its newline, to b —
// a job's log (see journalAppend) — and return the result.

// recHead starts a record: "op=<op> id=<id> at=<at>".
func recHead(b []byte, op string, id JobID, at sim.Time) []byte {
	b = append(append(b, "op="...), op...)
	return record.AppendInt(record.AppendInt(b, "id", int64(id)), "at", int64(at))
}

// runRecords is what the records a job's run typically adds to its
// log after the submit record take: a match, an exec and a final.
const runRecords = 400

// recSubmit records a submission with the job's immutable identity:
// owner, universe, executable, the ad as rendered at submit, and the
// program.  It opens the job's log, so b is grown for the record and
// the run after it at once.
func recSubmit(b []byte, j *Job) []byte {
	ad := ""
	if j.Ad != nil {
		ad = j.Ad.String()
	}
	prog := jvm.EncodeProgram(j.Program)
	b = recHead(slices.Grow(b, 128+len(ad)+len(prog)+runRecords), "submit", j.ID, j.Submitted)
	b = record.AppendStr(b, "owner", j.Owner)
	b = record.AppendStr(b, "universe", j.Universe)
	b = record.AppendStr(b, "exe", j.Executable)
	b = record.AppendStr(b, "ad", ad)
	return record.AppendStr(b, "prog", prog)
}

// recMachineOp records a transition onto a machine: match, exec.
func recMachineOp(b []byte, op string, id JobID, at sim.Time, machine string) []byte {
	return record.AppendStr(recHead(b, op, id, at), "machine", machine)
}

// recFlock records a flock transition: the job's advertisement moved
// to the peer negotiator `to` at 1-based `level`, or came home again
// (level 0, empty to).
func recFlock(b []byte, id JobID, at sim.Time, level int, to string) []byte {
	b = record.AppendInt(recHead(b, "flock", id, at), "level", int64(level))
	return record.AppendStr(b, "to", to)
}

// recCkpt records a committed checkpoint: the job can resume from cpu
// nanoseconds of delivered work on any machine, even after a schedd
// crash.
func recCkpt(b []byte, id JobID, at sim.Time, cpu time.Duration) []byte {
	return record.AppendInt(recHead(b, "ckpt", id, at), "cpu", int64(cpu))
}

// recEvent covers the transitions that carry no payload beyond the
// job and the instant: claim-timeout, claim-denied, relax, recover, and
// requeue, the one a job's log holds and the journal does not (see
// handleFinal).
func recEvent(b []byte, op string, id JobID, at sim.Time) []byte {
	return recHead(b, op, id, at)
}

// recFinal records a final report: the attempt's machine, CPU and
// checkpoint, how it ended, its two scoped errors, and the reported and
// the true result.
func recFinal(b []byte, f jobFinalMsg, at sim.Time) []byte {
	b = record.AppendStr(recHead(b, "final", f.Job, at), "machine", f.Machine)
	b = record.AppendInt(b, "cpu", int64(f.CPU))
	b = record.AppendInt(b, "ckpt", int64(f.CheckpointCPU))
	b = record.AppendBool(b, "evicted", f.Evicted)
	if f.Preempted { // written only when set, so a record without it reads as not preempted
		b = record.AppendBool(b, "pre", true)
	}
	b = record.AppendBool(b, "hold", f.Hold)
	b = record.AppendStr(b, "fetch", encodeScopedErr(f.FetchError))
	b = record.AppendStr(b, "lost", encodeScopedErr(f.LostContact))
	b = record.AppendStr(b, "rep", f.Reported.EncodeString())
	return record.AppendStr(b, "tru", f.True.EncodeString())
}

// encodeScopedErr flattens an error for the journal.  The cause chain
// is collapsed into the effective message, so the round-tripped error
// prints the identical Error() string and keeps its scope, kind,
// code, and origin — everything disposition and reporting read.
func encodeScopedErr(err error) string {
	if err == nil {
		return ""
	}
	se, ok := scope.AsError(err)
	if !ok {
		se = scope.New(scope.ScopeOf(err), "UnscopedError", "%v", err)
	}
	msg := se.Message
	if msg == "" && se.Cause != nil {
		msg = se.Cause.Error()
	}
	return strings.Join([]string{
		se.Scope.String(), se.Kind.String(), se.Code, se.Origin, msg}, "|")
}

func decodeScopedErr(enc string) (error, error) {
	if enc == "" {
		return nil, nil
	}
	parts := strings.SplitN(enc, "|", 5)
	if len(parts) != 5 {
		return nil, fmt.Errorf("malformed error %q", enc)
	}
	sc, err := scope.ParseScope(parts[0])
	if err != nil {
		return nil, err
	}
	k, err := scope.ParseKind(parts[1])
	if err != nil {
		return nil, err
	}
	return &scope.Error{Scope: sc, Kind: k, Code: parts[2],
		Origin: parts[3], Message: parts[4]}, nil
}

// tallyBound bounds the length of a history frame's op=history
// record: the tag, eleven integer fields of at most 22 bytes past
// their keys, the 79 bytes of the keys, and the newline.
const tallyBound = len("op=history") + 11*22 + 79 + 1

// appendTally writes a history frame's first record: the retired
// tallies so far, this frame's jobs included.  Jobs is the sum of the
// three terminal states, so it is not written.
func appendTally(b []byte, t *Tally) []byte {
	b = record.AppendInt(append(b, "op=history"...), "completed", int64(t.Completed))
	b = record.AppendInt(b, "unexecutable", int64(t.Unexecutable))
	b = record.AppendInt(b, "held", int64(t.Held))
	b = record.AppendInt(b, "leaks", int64(t.IncidentalLeaks))
	b = record.AppendInt(b, "attempts", int64(t.Attempts))
	b = record.AppendInt(b, "fetch", int64(t.FetchFailures))
	b = record.AppendInt(b, "lost", int64(t.LostContacts))
	b = record.AppendInt(b, "evictions", int64(t.Evictions))
	b = record.AppendInt(b, "goodput", int64(t.Goodput))
	b = record.AppendInt(b, "badput", int64(t.Badput))
	return append(record.AppendInt(b, "turnaround", int64(t.TurnaroundTotal)), '\n')
}

// snapshotSize bounds the length of the snapshot appendSnapshot
// writes: the live jobs' logs exactly, and the trailer's fields at
// their widest.  (A machine name is bounded as printable ASCII; a name
// that quotes longer only costs the journal a copy.)
func (s *Schedd) snapshotSize() int {
	n := len("op=schedd nextID= requeues= recoveries=\n") + 3*20
	for _, j := range s.live {
		n += len(j.log)
	}
	for m, rec := range s.machineFailures {
		if rec.count != 0 {
			n += len("op=failure machine=\"\" count= last=\n") + 2*len(m) + 2*20
		}
	}
	return n
}

// appendSnapshot appends the live queue to b as records: every live
// job's log, in id order, then the trailer — the op=schedd counters, on
// which replay clears the chronic-failure table, and the table as
// op=failure records.  The trailer must come last: a job's replayed
// final still disposes, and the finals of retired jobs have left the
// journal, so the trailer overwrites what replaying the logs did to the
// counters and the table.  compact calls it right after retire, so no
// live job is terminal.
func (s *Schedd) appendSnapshot(b []byte) []byte {
	for _, j := range s.live {
		b = append(b, j.log...)
	}
	b = record.AppendInt(append(b, "op=schedd"...), "nextID", int64(s.nextID))
	b = record.AppendInt(b, "requeues", int64(s.Requeues))
	b = append(record.AppendInt(b, "recoveries", int64(s.Recoveries)), '\n')
	machines := make([]string, 0, len(s.machineFailures))
	for m, rec := range s.machineFailures {
		if rec.count != 0 {
			machines = append(machines, m)
		}
	}
	sort.Strings(machines)
	for _, m := range machines {
		rec := s.machineFailures[m]
		b = record.AppendStr(append(b, "op=failure"...), "machine", m)
		b = record.AppendInt(b, "count", int64(rec.count))
		b = append(record.AppendInt(b, "last", int64(rec.last)), '\n')
	}
	return b
}

// retire moves every terminal job out of the queue into one history
// frame, written in place in the history journal.  Each terminal job
// has exactly one report, and the reports are in completion order, so
// the frame walks them: the op=history record with the cumulative
// retired tallies, then each retiring job's log in completion order,
// so replaying the frame rebuilds the reports in order.  The jobs'
// share of the tallies moves here, once.  The retired *Job values stay
// in process memory, event logs included, until the next crash; their
// logs are dropped, since nothing writes a retired job again.  With
// no job terminal, nothing is written.
func (s *Schedd) retire() {
	if len(s.reports) == 0 {
		return
	}
	// Every live terminal job has its report here, so the terminal
	// tally moves whole.
	s.retiredTally.Merge(s.doneTally)
	s.doneTally = Tally{}
	size := tallyBound
	for i := range s.reports {
		size += len(s.jobs.get(s.reports[i].Job).log)
	}
	s.hist.AppendFunc(size, s.appendRetiring)
	for i := range s.reports {
		j := s.jobs.get(s.reports[i].Job)
		j.log = nil
		s.jobs.drop(j.ID)
		s.retired[j.ID] = retiredJob{j: j}
	}
	s.live = slices.DeleteFunc(s.live, func(j *Job) bool { return j.State.Terminal() })
	s.retiredReports = append(s.retiredReports, s.reports...)
	clear(s.reports)
	s.reports = s.reports[:0]
}

// appendRetiring appends the history frame of the retiring jobs to b:
// the retired tallies, then each reporting job's log.
func (s *Schedd) appendRetiring(b []byte) []byte {
	b = appendTally(b, &s.retiredTally)
	for i := range s.reports {
		b = append(b, s.jobs.get(s.reports[i].Job).log...)
	}
	return b
}
