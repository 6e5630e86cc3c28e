package daemon

// Submit-side crash durability (Section 4: the schedd is the job
// queue's home, and the queue must outlive the process).  Every queue
// transition is appended to a write-ahead journal before it is acted
// on; Crash tears the process down mid-flight, and Recover rebuilds
// the queue by replaying the journal, requeueing jobs whose shadows
// died with the schedd.
//
// The journal holds one text record per transition, and the periodic
// compaction folds the applied prefix into a snapshot of the whole
// queue.  Both are key=value lines with Go-quoted strings, so a torn
// tail truncates at a record boundary (package journal) and a record
// never splits across frames.
//
// Deliberately not persisted: per-job event logs and the transient
// counters (MatchesReceived, MatchesDeclined, ClaimsFailed) — they
// are telemetry about the dead process, not queue state — and the
// claim sequence numbers, whose timers died with the process and are
// fenced off by the epoch check on recovery.  Flock state is
// journaled (flock records) but never snapshotted: recovery resets
// every job to its home pool (normalizeJob), because the remote
// advertisement is exactly what a crash invalidates.

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/errscope/grid/internal/journal"
	"github.com/errscope/grid/internal/jvm"
	"github.com/errscope/grid/internal/obs"
	"github.com/errscope/grid/internal/scope"
	"github.com/errscope/grid/internal/sim"
)

// walCompactEvery bounds journal growth: after this many appended
// records the log is folded into a snapshot before the next append.
const walCompactEvery = 64

// Journal exposes the schedd's write-ahead journal — the durable
// storage a recovery replays.  Tests and fault injectors read it from
// the "disk" of a crashed schedd.
func (s *Schedd) Journal() *journal.Journal { return s.wal }

// Crashed reports whether the schedd is currently down.
func (s *Schedd) Crashed() bool { return s.crashed }

// journalAppend writes one record ahead of the transition it
// describes.  The reference arm appends (and, on a real disk, syncs)
// immediately; the fast path buffers the record into the open batch
// and schedules the group commit for the end of the current instant,
// deferring every outgoing send behind it (see commitWAL).
func (s *Schedd) journalAppend(rec []byte) {
	if !s.fast {
		// Compaction runs before the append: every record already in
		// the log has been applied to the queue, so the snapshot of
		// the current queue plus the new record is the complete
		// history.
		if s.walAppends >= walCompactEvery {
			s.wal.Compact(s.snapshot(), nil)
			s.walAppends = 0
		}
		s.wal.Append(rec)
		s.walAppends++
		return
	}
	s.walBuf = append(s.walBuf, rec)
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

// compactEvery is the adaptive compaction threshold: at least the
// historic walCompactEvery, but grown with queue size.  A fixed
// threshold makes a big pool re-serialize its whole queue every 64
// transitions — O(queue²) journal work over a run — while a
// proportional one keeps compaction amortized O(1) per transition.
// The multiplier trades recovery replay length against snapshot
// traffic; at 4x the run-long journal cost stays O(1) per transition
// with half the 2x multiplier's snapshot bytes.
func (s *Schedd) compactEvery() int {
	if n := 4 * len(s.jobs); n > walCompactEvery {
		return n
	}
	return walCompactEvery
}

// commitWAL closes the open batch.  The buffered records become
// durable as one batched append — or are folded into a fresh snapshot
// when the log is due for compaction: every buffered record describes
// a transition already applied to the in-memory queue, so the
// snapshot subsumes the batch.  Only then do the deferred sends go
// out, in order.  The epoch fence drops commits armed before a crash:
// the buffer and outbox are process memory, and losing them at a
// crash is exactly the semantics the group-commit crash test pins.
func (s *Schedd) commitWAL(epoch int) {
	if s.crashed || epoch != s.epoch {
		return
	}
	s.commitArmed = false
	if len(s.walBuf) > 0 {
		if s.walAppends+len(s.walBuf) >= s.compactEvery() {
			s.wal.Compact(s.snapshot(), nil)
			s.walAppends = 0
		} else {
			s.wal.AppendBatch(s.walBuf)
			s.walAppends += len(s.walBuf)
		}
		clear(s.walBuf)
		s.walBuf = s.walBuf[:0]
	}
	for i := range s.outbox {
		p := s.outbox[i]
		s.outbox[i] = pendingSend{}
		s.bus.Send(s.name, p.to, p.kind, p.body)
	}
	s.outbox = s.outbox[:0]
}

// ForceCompact folds the journal into a fresh snapshot now, without
// waiting for the adaptive threshold — the ops-plane `compact` verb.
// Any buffered group-commit records describe transitions already
// applied to the in-memory queue, so the snapshot subsumes them; the
// sends deferred behind those records still flush at the armed commit
// (durability is only ever strengthened here, never weakened).  On a
// crashed schedd the verb escapes to the caller as a local-resource
// error naming the daemon it touched.
func (s *Schedd) ForceCompact() error {
	if s.crashed {
		e := scope.New(scope.ScopeLocalResource, "ScheddDown",
			"cannot compact %s: the schedd is down", s.name)
		return e.WithOrigin(s.name)
	}
	s.wal.Compact(s.snapshot(), nil)
	s.walAppends = 0
	clear(s.walBuf)
	s.walBuf = s.walBuf[:0]
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
// The journal survives; it is the disk, not the process.
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
// default, or an explicit one standing in for the recovered disk.
// The queue is rebuilt by replaying the snapshot and every surviving
// record; jobs that were in flight when the process died are closed
// out with a local-resource ShadowDied error and requeued.
func (s *Schedd) Recover(from *journal.Journal) error {
	if !s.crashed {
		return fmt.Errorf("schedd %s: recover without a crash", s.name)
	}
	if from == nil {
		from = s.wal
	}
	r := from.Replay()

	s.wal = from
	s.walAppends = len(r.Entries)
	s.jobs = make(map[JobID]*Job)
	s.order = nil
	s.nextID = 0
	s.shadowSeq = 0
	s.shadows = make(map[JobID]*Shadow)
	s.machineFailures = make(map[string]failureRecord)
	s.avoidedCache, s.avoidedDirty = nil, true
	s.idleOrder, s.idleStale, s.nonTerminal = nil, 0, 0
	s.idlePos = make(map[JobID]int)
	s.Reports = nil
	s.reportEnc, s.reportEncN = s.reportEnc[:0], 0
	s.Requeues = 0
	s.MatchesReceived, s.MatchesDeclined, s.ClaimsFailed = 0, 0, 0

	rp := newReplayer(s)
	if len(r.Snapshot) > 0 {
		if err := rp.applySnapshot(r.Snapshot); err != nil {
			return fmt.Errorf("schedd %s: snapshot: %w", s.name, err)
		}
	}
	for i, e := range r.Entries {
		if err := rp.applyEntry(e); err != nil {
			return fmt.Errorf("schedd %s: record %d: %w", s.name, i, err)
		}
	}

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
	// journaled so a second crash replays to the same place.
	for _, id := range s.order {
		j := s.jobs[id]
		if j.State.Terminal() {
			continue
		}
		open := j.LastAttempt() != nil && j.LastAttempt().End == 0
		s.journalAppend(recEvent("recover", j.ID, now))
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
		s.advertiseJob(j)
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

// identLine returns — building it on first use — the encoding of the
// job's immutable identity fields, shared by the submit record and
// every snapshot line: "owner=.. universe=.. exe=.. ad=.. prog=..".
// Owner, Universe, Executable, Ad, and Program never change after
// submission (recovery builds a fresh Job), so the rendered ad and the
// quoting work are paid once per job instead of once per snapshot.
func (j *Job) identLine() []byte {
	if j.identEnc == nil {
		ad := ""
		if j.Ad != nil {
			ad = j.Ad.String()
		}
		b := append(make([]byte, 0, 96+len(ad)), "owner="...)
		b = scope.AppendQuote(b, j.Owner)
		b = append(b, " universe="...)
		b = scope.AppendQuote(b, j.Universe)
		b = append(b, " exe="...)
		b = scope.AppendQuote(b, j.Executable)
		b = append(b, " ad="...)
		b = scope.AppendQuote(b, ad)
		b = append(b, " prog="...)
		b = scope.AppendQuote(b, jvm.EncodeProgram(j.Program))
		j.identEnc = b
	}
	return j.identEnc
}

func recSubmit(j *Job) []byte {
	ident := j.identLine()
	b := append(make([]byte, 0, 40+len(ident)), "op=submit id="...)
	b = strconv.AppendInt(b, int64(j.ID), 10)
	b = append(b, " at="...)
	b = strconv.AppendInt(b, int64(j.Submitted), 10)
	b = append(b, ' ')
	b = append(b, ident...)
	return b
}

func recMachineOp(op string, id JobID, at sim.Time, machine string) []byte {
	b := append(make([]byte, 0, 48+len(machine)), "op="...)
	b = append(b, op...)
	b = append(b, " id="...)
	b = strconv.AppendInt(b, int64(id), 10)
	b = append(b, " at="...)
	b = strconv.AppendInt(b, int64(at), 10)
	b = append(b, " machine="...)
	b = scope.AppendQuote(b, machine)
	return b
}

func recMatch(id JobID, at sim.Time, machine string) []byte {
	return recMachineOp("match", id, at, machine)
}

func recExec(id JobID, at sim.Time, machine string) []byte {
	return recMachineOp("exec", id, at, machine)
}

// recFlock records a flock transition: the job's advertisement moved
// to the peer negotiator `to` at 1-based `level`, or came home again
// (level 0, empty to).
func recFlock(id JobID, at sim.Time, level int, to string) []byte {
	b := append(make([]byte, 0, 56+len(to)), "op=flock id="...)
	b = strconv.AppendInt(b, int64(id), 10)
	b = append(b, " at="...)
	b = strconv.AppendInt(b, int64(at), 10)
	b = append(b, " level="...)
	b = strconv.AppendInt(b, int64(level), 10)
	b = append(b, " to="...)
	b = scope.AppendQuote(b, to)
	return b
}

// recCkpt records a committed checkpoint: the job can resume from cpu
// nanoseconds of delivered work on any machine, even after a schedd
// crash.
func recCkpt(id JobID, at sim.Time, cpu time.Duration) []byte {
	b := append(make([]byte, 0, 56), "op=ckpt id="...)
	b = strconv.AppendInt(b, int64(id), 10)
	b = append(b, " at="...)
	b = strconv.AppendInt(b, int64(at), 10)
	b = append(b, " cpu="...)
	b = strconv.AppendInt(b, int64(cpu), 10)
	return b
}

// recEvent covers the transitions that carry no payload beyond the
// job and the instant: claim-timeout, claim-denied, relax, recover.
func recEvent(op string, id JobID, at sim.Time) []byte {
	b := append(make([]byte, 0, 40), "op="...)
	b = append(b, op...)
	b = append(b, " id="...)
	b = strconv.AppendInt(b, int64(id), 10)
	b = append(b, " at="...)
	b = strconv.AppendInt(b, int64(at), 10)
	return b
}

func recFinal(f jobFinalMsg, at sim.Time) []byte {
	b := append(make([]byte, 0, 256), "op=final id="...)
	b = strconv.AppendInt(b, int64(f.Job), 10)
	b = append(b, " at="...)
	b = strconv.AppendInt(b, int64(at), 10)
	b = append(b, " machine="...)
	b = scope.AppendQuote(b, f.Machine)
	b = append(b, " cpu="...)
	b = strconv.AppendInt(b, int64(f.CPU), 10)
	b = append(b, " ckpt="...)
	b = strconv.AppendInt(b, int64(f.CheckpointCPU), 10)
	b = append(b, " evicted="...)
	b = strconv.AppendBool(b, f.Evicted)
	if f.Preempted { // written only when set, so pre-preemption logs replay byte-identically
		b = append(b, " pre=true"...)
	}
	b = append(b, " hold="...)
	b = strconv.AppendBool(b, f.Hold)
	b = append(b, " fetch="...)
	b = scope.AppendQuote(b, encodeScopedErr(f.FetchError))
	b = append(b, " lost="...)
	b = scope.AppendQuote(b, encodeScopedErr(f.LostContact))
	b = append(b, " rep="...)
	b = scope.AppendQuote(b, f.Reported.EncodeString())
	b = append(b, " tru="...)
	b = scope.AppendQuote(b, f.True.EncodeString())
	return b
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

// --- snapshot --------------------------------------------------------

// snapshot serializes the whole queue: one header line, the
// chronic-failure table, then per job its attempts, then the user
// reports.  Line order is the replay order.  The assembly buffer is
// reused across snapshots and the immutable pieces — job identity
// lines, frozen attempts, already-written reports — come from caches,
// so each compaction pays only for the state that changed since the
// last one.  The returned slice aliases the reused buffer; callers
// (journal framing) copy it before the next snapshot.
func (s *Schedd) snapshot() []byte {
	if cap(s.snapBuf) < 256*len(s.jobs) {
		// First snapshot at this queue size: reserve roughly a full
		// serialization up front so the build doubles a handful of
		// times instead of re-copying megabytes under append's damped
		// growth factor.
		s.snapBuf = make([]byte, 0, 256*len(s.jobs))
	}
	b := s.snapBuf[:0]
	b = append(b, "schedd nextID="...)
	b = strconv.AppendInt(b, int64(s.nextID), 10)
	b = append(b, " requeues="...)
	b = strconv.AppendInt(b, int64(s.Requeues), 10)
	b = append(b, " recoveries="...)
	b = strconv.AppendInt(b, int64(s.Recoveries), 10)
	b = append(b, '\n')
	machines := make([]string, 0, len(s.machineFailures))
	for m, rec := range s.machineFailures {
		if rec.count != 0 {
			machines = append(machines, m)
		}
	}
	sort.Strings(machines)
	for _, m := range machines {
		rec := s.machineFailures[m]
		b = append(b, "failure machine="...)
		b = scope.AppendQuote(b, m)
		b = append(b, " count="...)
		b = strconv.AppendInt(b, int64(rec.count), 10)
		b = append(b, " last="...)
		b = strconv.AppendInt(b, int64(rec.last), 10)
		b = append(b, '\n')
	}
	for _, id := range s.order {
		j := s.jobs[id]
		b = append(b, "job id="...)
		b = strconv.AppendInt(b, int64(j.ID), 10)
		b = append(b, ' ')
		b = append(b, j.identLine()...)
		b = append(b, " state="...)
		b = append(b, j.State.String()...)
		b = append(b, " ckpt="...)
		b = strconv.AppendInt(b, int64(j.CheckpointCPU), 10)
		b = append(b, " relaxed="...)
		b = strconv.AppendBool(b, j.avoidanceRelaxed)
		b = append(b, " submitted="...)
		b = strconv.AppendInt(b, int64(j.Submitted), 10)
		b = append(b, " finished="...)
		b = strconv.AppendInt(b, int64(j.Finished), 10)
		b = append(b, " finalerr="...)
		b = scope.AppendQuote(b, encodeScopedErr(j.FinalErr))
		b = append(b, '\n')
		b = j.appendAttempts(b)
	}
	if s.reportEncN > len(s.Reports) {
		// Reports were reset (recovery rebuilds them); re-encode.
		s.reportEnc, s.reportEncN = s.reportEnc[:0], 0
	}
	for ; s.reportEncN < len(s.Reports); s.reportEncN++ {
		s.reportEnc = appendReport(s.reportEnc, &s.Reports[s.reportEncN])
	}
	b = append(b, s.reportEnc...)
	s.snapBuf = b
	return b
}

// appendAttempts writes the job's attempt lines: the frozen prefix
// from the cache, the still-mutable tail fresh.  An attempt freezes
// when a later attempt exists (applyFinal and normalizeJob only touch
// the last), or when it is closed and the job is terminal.
func (j *Job) appendAttempts(b []byte) []byte {
	for j.attEncN < len(j.Attempts) {
		a := &j.Attempts[j.attEncN]
		if j.attEncN == len(j.Attempts)-1 && !(a.End != 0 && j.State.Terminal()) {
			break
		}
		j.attEnc = appendAttempt(j.attEnc, j.ID, a)
		j.attEncN++
	}
	b = append(b, j.attEnc...)
	for i := j.attEncN; i < len(j.Attempts); i++ {
		b = appendAttempt(b, j.ID, &j.Attempts[i])
	}
	return b
}

func appendAttempt(b []byte, id JobID, a *Attempt) []byte {
	b = append(b, "attempt id="...)
	b = strconv.AppendInt(b, int64(id), 10)
	b = append(b, " machine="...)
	b = scope.AppendQuote(b, a.Machine)
	b = append(b, " start="...)
	b = strconv.AppendInt(b, int64(a.Start), 10)
	b = append(b, " end="...)
	b = strconv.AppendInt(b, int64(a.End), 10)
	b = append(b, " cpu="...)
	b = strconv.AppendInt(b, int64(a.CPU), 10)
	b = append(b, " evicted="...)
	b = strconv.AppendBool(b, a.Evicted)
	if a.Preempted {
		b = append(b, " pre=true"...)
	}
	b = append(b, " fetch="...)
	b = scope.AppendQuote(b, encodeScopedErr(a.FetchError))
	b = append(b, " lost="...)
	b = scope.AppendQuote(b, encodeScopedErr(a.LostContact))
	b = append(b, " rep="...)
	b = scope.AppendQuote(b, a.Reported.EncodeString())
	b = append(b, " tru="...)
	b = scope.AppendQuote(b, a.True.EncodeString())
	return append(b, '\n')
}

func appendReport(b []byte, r *UserReport) []byte {
	b = append(b, "report job="...)
	b = strconv.AppendInt(b, int64(r.Job), 10)
	b = append(b, " disp="...)
	b = append(b, r.Disposition.String()...)
	b = append(b, " result="...)
	b = scope.AppendQuote(b, r.Result.EncodeString())
	b = append(b, " err="...)
	b = scope.AppendQuote(b, encodeScopedErr(r.Err))
	b = append(b, " leak="...)
	b = strconv.AppendBool(b, r.IncidentalLeak)
	return append(b, '\n')
}
