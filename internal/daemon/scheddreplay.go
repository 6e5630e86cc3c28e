package daemon

// The read side of the schedd journal.  applyEntry is the one decoder
// of the one record language scheddjournal.go writes, in three uses:
// on the journal's records, on a snapshot's lines, and on a scratch
// queue, to decode a retired job's run in the history on demand.  It
// reads each record through the lenient journal grammar of package
// record (record.Cursor) and appends to the job's log a copy of the
// fields it read from every job record it applies, as the writer
// wrote them, so a rebuilt log is canonical, never encoded twice and
// never a slice of the bytes it read.  DESIGN.md
// ("Record language", "Schedd journal: record language and replay")
// has the grammar.

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"time"

	"github.com/errscope/grid/internal/classad"
	"github.com/errscope/grid/internal/journal"
	"github.com/errscope/grid/internal/jvm"
	"github.com/errscope/grid/internal/record"
	"github.com/errscope/grid/internal/scope"
	"github.com/errscope/grid/internal/sim"
)

// replayer rebuilds the queue for one Recover call, or decodes
// retired jobs from the history into a scratch queue for one Job, Jobs
// or Reports call.  It scans every record into one reused
// record.Cursor, and resolves what a queue repeats — job ads,
// programs, results, machine and owner names — through tables keyed
// on the raw field text, so replay parses each distinct text once.
// The tables die with the call: a hit is only ever a field
// byte-identical to one that already passed every check in this same
// replay.  Nothing handed to the queue aliases the log.
type replayer struct {
	s *Schedd
	record.Cursor
	// lastRetired is the highest job id the history holds.
	lastRetired JobID

	ads     map[string]*classad.Ad
	progs   map[string]*jvm.Program
	results map[string]scope.Result
	names   map[string]string
}

func newReplayer(s *Schedd) *replayer {
	return &replayer{s: s,
		ads:     make(map[string]*classad.Ad),
		progs:   make(map[string]*jvm.Program),
		results: make(map[string]scope.Result),
		names:   make(map[string]string),
	}
}

// applyLines replays a run of records, one per line: a snapshot, or a
// job's log or run.
func (rp *replayer) applyLines(data []byte) error {
	for ln := 1; len(data) > 0; ln++ {
		var line []byte
		line, data, _ = bytes.Cut(data, []byte{'\n'})
		if len(line) == 0 {
			continue
		}
		if err := rp.applyEntry(line); err != nil {
			return fmt.Errorf("line %d: %w", ln, err)
		}
	}
	return nil
}

// applyEntry replays one record against the queue.  Records are
// facts, not requests: they were written ahead of transitions that
// then happened, so they apply unconditionally — except to a job the
// history holds, which the history wins.  The schedd, failure and
// history records carry state of the schedd rather than of a job.
func (rp *replayer) applyEntry(payload []byte) error {
	if err := rp.Scan(payload); err != nil {
		return err
	}
	s := rp.s
	op, _ := rp.Get("op")
	switch string(op) {
	case "schedd":
		nextID, requeues, recoveries := rp.Int("nextID"), rp.Int("requeues"), rp.Int("recoveries")
		if rp.Err != nil {
			return rp.Err
		}
		s.nextID, s.Requeues, s.Recoveries = JobID(nextID), int(requeues), int(recoveries)
		clear(s.machineFailures) // the failure records after it are the whole table
		s.avoidedDirty = true
		return nil
	case "failure":
		m, count, last := rp.name("machine"), rp.Int("count"), rp.Int("last")
		if rp.Err != nil {
			return rp.Err
		}
		s.machineFailures[m] = failureRecord{count: int(count), last: sim.Time(last)}
		s.avoidedDirty = true
		return nil
	case "history":
		t := rp.tally()
		if rp.Err != nil {
			return rp.Err
		}
		s.retiredTally = t
		return nil
	}
	id, at := JobID(rp.Int("id")), sim.Time(rp.Int("at"))
	if rp.Err != nil {
		return rp.Err
	}
	if _, ok := s.retired[id]; ok {
		return rp.skipRetired(string(op), id, at)
	}
	if string(op) == "submit" {
		return rp.replaySubmit(id, at)
	}
	j := s.jobs.get(id)
	if j == nil {
		return fmt.Errorf("%s record for unknown job %d", op, id)
	}
	switch string(op) {
	case "match":
		if rp.name("machine"); rp.Err != nil { // decoded for its verdict; only the log keeps it
			return rp.Err
		}
		s.setState(j, JobMatched)
	case "claim-timeout", "claim-denied", "requeue":
		s.setState(j, JobIdle)
	case "exec":
		machine := rp.name("machine")
		if rp.Err != nil {
			return rp.Err
		}
		s.setState(j, JobRunning)
		j.avoidanceRelaxed = false
		s.resetFlock(j)
		j.Attempts = append(j.Attempts, Attempt{Machine: machine, Start: at})
	case "relax":
		j.avoidanceRelaxed = true
	case "ckpt":
		cpu := durationNS(rp.Int("cpu"))
		if rp.Err != nil {
			return rp.Err
		}
		if cpu > j.CheckpointCPU {
			j.CheckpointCPU = cpu
		}
	case "flock":
		level, to := int(rp.Int("level")), rp.name("to")
		if rp.Err != nil {
			return rp.Err
		}
		s.setFlock(j, to, level, at)
	case "final":
		f, err := rp.decodeFinal(id)
		if err != nil {
			return err
		}
		s.applyFinal(j, f, finalError(f), at)
	case "recover":
		s.normalizeJob(j, at)
	default:
		return fmt.Errorf("unknown record op %q", op)
	}
	rp.logRecord(j)
	return nil
}

// logRecord appends the record under the cursor to the job's log: its
// fields as they were written, so that replay, which decodes them
// anyway, never encodes them again, and nothing it ignored.  The log
// copies them, so it aliases nothing.
func (rp *replayer) logRecord(j *Job) {
	j.log = append(rp.AppendUsed(j.log), '\n')
}

// skipRetired replays a record of a job the history holds.  The job
// itself is the history's; what a final report did to the schedd —
// its disposition's share of the requeue count and the
// chronic-failure table — still applies, so a crash between the
// history append and the compaction that follows it recovers the
// state the compaction would have written.  (A submit's id needs
// nothing: Recover keeps nextID above every retired id.)
func (rp *replayer) skipRetired(op string, id JobID, at sim.Time) error {
	if op != "final" {
		return nil
	}
	f, err := rp.decodeFinal(id)
	if err != nil {
		return err
	}
	rp.s.dispose(f, finalError(f), at)
	return nil
}

// replaySubmit rebuilds one job from the submit record under the
// cursor and queues it.
func (rp *replayer) replaySubmit(id JobID, at sim.Time) error {
	j := &Job{ID: id, State: JobIdle, Submitted: at,
		Owner: rp.name("owner"), Universe: rp.name("universe"), Executable: rp.Str("exe"),
		Ad: rp.ad(id), Program: rp.program(id)}
	if rp.Err != nil {
		return rp.Err
	}
	rp.logRecord(j)
	rp.s.addJob(j)
	rp.s.nextID = max(rp.s.nextID, id)
	return nil
}

// ad returns the job's ad: its own Ad, a Copy of the template parsed
// and precompiled the first time this replay met the field's text.
// The copy shares the immutable expressions and the rendering, and
// nothing mutable — so per-job edits and the matchmaker's pointer
// check work exactly as for a freshly parsed ad.
func (rp *replayer) ad(id JobID) *classad.Ad {
	raw := rp.Need("ad")
	if rp.Err != nil {
		return nil
	}
	tmpl, ok := rp.ads[string(raw)]
	if !ok {
		src := rp.Unquote("ad", raw)
		if rp.Err != nil {
			return nil
		}
		if src != "" {
			var err error
			if tmpl, err = classad.Parse(src); err != nil {
				rp.Err = fmt.Errorf("job %d ad: %w", id, err)
				return nil
			}
			tmpl.Precompile()
		}
		rp.ads[string(raw)] = tmpl
	}
	if tmpl == nil {
		return nil
	}
	return tmpl.Copy()
}

// program returns the job's program; programs are immutable, so jobs
// with the same program text share one.
func (rp *replayer) program(id JobID) *jvm.Program {
	raw := rp.Need("prog")
	if rp.Err != nil {
		return nil
	}
	prog, ok := rp.progs[string(raw)]
	if !ok {
		src := rp.Unquote("prog", raw)
		if rp.Err != nil {
			return nil
		}
		var err error
		if prog, err = jvm.ParseProgram(src); err != nil {
			rp.Err = fmt.Errorf("job %d program: %w", id, err)
			return nil
		}
		rp.progs[string(raw)] = prog
	}
	return prog
}

func (rp *replayer) decodeFinal(id JobID) (jobFinalMsg, error) {
	f := jobFinalMsg{Job: id, Machine: rp.name("machine"),
		CPU: durationNS(rp.Int("cpu")), CheckpointCPU: durationNS(rp.Int("ckpt")),
		Evicted: rp.Bool("evicted")}
	if _, ok := rp.Get("pre"); ok { // written only when set
		f.Preempted = rp.Bool("pre")
	}
	f.Hold = rp.Bool("hold")
	f.FetchError, f.LostContact = rp.scopedErr("fetch"), rp.scopedErr("lost")
	f.Reported = rp.result("rep", "reported result: ")
	f.True = rp.result("tru", "true result: ")
	return f, rp.Err
}

// --- history ---------------------------------------------------------

// retiredJob is one job the history holds: the *Job itself, once this
// process retired or decoded it, or else its run in the history — its
// records, as the last Recover read them, where they lie in the
// history journal.  The history is only ever appended to, so the run
// stays as it was read.  A decoded run keeps the reports it made until
// Reports takes them.
type retiredJob struct {
	j       *Job
	run     []byte
	reports []UserReport
}

// readHistory indexes the history for Recover without decoding a
// retired job: the journal checks each frame's checksum and stops at
// the first bad one, as it does for the write-ahead journal; each
// frame's op=history record is applied, so the retired tallies are the
// last frame's; and each job's run is found and kept, a slice of the
// frame, for retiredJob and Reports to decode on demand.
func (rp *replayer) readHistory(r journal.Replay) error {
	s := rp.s
	s.retired = make(map[JobID]retiredJob)
	s.retiredTally, s.retiredReports, s.histRuns = Tally{}, nil, nil
	if r.Snapshot != nil {
		return errors.New("snapshot record in the history")
	}
	for i, frame := range r.Entries {
		if err := rp.indexFrame(frame); err != nil {
			return fmt.Errorf("frame %d: %w", i, err)
		}
	}
	return nil
}

// indexFrame indexes one history frame: its op=history record, then
// runs of one job's records, each opened by the job's submit record.
func (rp *replayer) indexFrame(data []byte) error {
	s := rp.s
	header, data, _ := bytes.Cut(data, []byte{'\n'})
	if op, _, _ := bytes.Cut(header, []byte{' '}); string(op) != "op=history" {
		return fmt.Errorf("frame opens with %q, not an op=history record", op)
	}
	if err := rp.applyEntry(header); err != nil {
		return err
	}
	var cur JobID
	start := -1 // offset of cur's submit record
	for off := 0; off < len(data); {
		end := off + bytes.IndexByte(data[off:], '\n')
		if end < off {
			end = len(data)
		}
		if end > off {
			op, id, err := rp.opID(data[off:end])
			switch {
			case err != nil:
				return err
			case string(op) == "submit":
				if start >= 0 {
					s.retired[cur] = retiredJob{run: data[start:off]}
				}
				if _, dup := s.retired[id]; dup {
					return fmt.Errorf("job %d retired twice", id)
				}
				s.retired[id] = retiredJob{}
				s.histRuns = append(s.histRuns, id)
				rp.lastRetired = max(rp.lastRetired, id)
				cur, start = id, off
			case start < 0:
				return fmt.Errorf("%s record of job %d before its submit", op, id)
			case id != cur:
				return fmt.Errorf("%s record of job %d inside job %d's run", op, id, cur)
			}
		}
		off = end + 1
	}
	if start >= 0 {
		s.retired[cur] = retiredJob{run: data[start:]}
	}
	return nil
}

// opID reads the op and job id of a record.  The writer puts them
// first, "op=<op> id=<id>", so they are read without scanning the rest
// of the line; any other spelling is scanned in full.
func (rp *replayer) opID(line []byte) ([]byte, JobID, error) {
	if rest, ok := bytes.CutPrefix(line, []byte("op=")); ok {
		op, rest, _ := bytes.Cut(rest, []byte{' '})
		if v, ok := bytes.CutPrefix(rest, []byte("id=")); ok {
			v, _, _ = bytes.Cut(v, []byte{' '})
			if n, err := strconv.ParseInt(string(v), 10, 64); err == nil {
				return op, JobID(n), nil
			}
		}
	}
	if err := rp.Scan(line); err != nil {
		return nil, 0, err
	}
	op, _ := rp.Get("op")
	id := JobID(rp.Int("id"))
	return op, id, rp.Err
}

// tally reads an op=history record.
func (rp *replayer) tally() Tally {
	t := Tally{Completed: int(rp.Int("completed")), Unexecutable: int(rp.Int("unexecutable")),
		Held: int(rp.Int("held")), IncidentalLeaks: int(rp.Int("leaks")),
		Attempts: int(rp.Int("attempts")), FetchFailures: int(rp.Int("fetch")),
		LostContacts: int(rp.Int("lost")), Evictions: int(rp.Int("evictions")),
		Goodput: durationNS(rp.Int("goodput")), Badput: durationNS(rp.Int("badput")),
		TurnaroundTotal: durationNS(rp.Int("turnaround"))}
	t.Jobs = t.Completed + t.Unexecutable + t.Held
	return t
}

// scratchQueue is an empty queue with s's name and parameters — what
// a job's records need to replay — that is never the queue itself.
func (s *Schedd) scratchQueue() *Schedd {
	return &Schedd{name: s.name, params: s.params,
		machineFailures: make(map[string]failureRecord)}
}

// decodeRun replays one job's run into the replayer's scratch queue
// and takes the job and the reports it made out again, or returns nil
// when the run does not replay to job id (the checksum passed, so only
// a forged history gets there).
func (rp *replayer) decodeRun(id JobID, run []byte) (*Job, []UserReport) {
	q := rp.s
	err := rp.applyLines(run)
	j, reports := q.jobs.get(id), slices.Clone(q.reports)
	q.jobs.drop(id)
	q.reports = q.reports[:0]
	if err != nil || j == nil {
		return nil, nil
	}
	j.log = nil
	return j, reports
}

// retiredJob returns the retired job id, decoding its run on first
// use, or nil when id is not retired or its run does not decode.  A
// non-nil rp is a replayer over a scratch queue shared across a walk,
// so the jobs it decodes share their ad templates, programs and names.
func (s *Schedd) retiredJob(id JobID, rp *replayer) *Job {
	r, ok := s.retired[id]
	if !ok || r.run == nil {
		return r.j
	}
	if rp == nil {
		rp = newReplayer(s.scratchQueue())
	}
	r.j, r.reports = rp.decodeRun(id, r.run)
	r.run = nil
	s.retired[id] = r
	return r.j
}

// decodeHistory decodes every run Recover indexed that is not decoded
// yet and takes their reports, in history order: the retired jobs'
// reports in completion order, older than the ones retired since.
func (s *Schedd) decodeHistory() {
	rp := newReplayer(s.scratchQueue())
	var reports []UserReport
	for _, id := range s.histRuns {
		s.retiredJob(id, rp)
		r := s.retired[id]
		reports = append(reports, r.reports...)
		s.retired[id] = retiredJob{j: r.j}
	}
	s.retiredReports = append(reports, s.retiredReports...)
	s.histRuns = nil
}

// name is Str for the fields a queue repeats — machine, owner,
// universe, flock target — so the rebuilt jobs share one string per
// distinct value.
func (rp *replayer) name(key string) string {
	raw := rp.Need(key)
	if rp.Err != nil {
		return ""
	}
	v, ok := rp.names[string(raw)]
	if !ok {
		if v = rp.Unquote(key, raw); rp.Err == nil {
			rp.names[string(raw)] = v
		}
	}
	return v
}

// result decodes a quoted result-file field; what prefixes a decode
// error the way the record's decoder always has.
func (rp *replayer) result(key, what string) scope.Result {
	raw := rp.Need(key)
	if rp.Err != nil {
		return scope.Result{}
	}
	r, ok := rp.results[string(raw)]
	if !ok {
		src := rp.Unquote(key, raw)
		if rp.Err != nil {
			return scope.Result{}
		}
		var err error
		if r, err = scope.DecodeResultString(src); err != nil {
			rp.Err = fmt.Errorf("%s%w", what, err)
			return r
		}
		rp.results[string(raw)] = r
	}
	return r
}

// scopedErr decodes a quoted encodeScopedErr field.  Errors are
// pointers the queue may annotate later, so they are never shared.
func (rp *replayer) scopedErr(key string) error {
	enc := rp.Str(key)
	if rp.Err != nil {
		return nil
	}
	e, err := decodeScopedErr(enc)
	rp.Err = err
	return e
}

func durationNS(n int64) time.Duration { return time.Duration(n) }
