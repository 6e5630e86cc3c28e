package daemon

// The read side of the schedd journal: rebuilding the queue from the
// records and snapshots scheddjournal.go writes, and indexing and
// decoding the history it retires jobs to, through the lenient journal
// grammar of package record (record.Cursor).  DESIGN.md ("Record
// language", "Schedd journal: record language and replay") has the
// grammar.

import (
	"bytes"
	"errors"
	"fmt"
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
// retired jobs from the history for one Job, Jobs or Reports call.  It
// scans every record and snapshot line into one reused record.Cursor,
// and resolves what a queue repeats — job ads, programs, results,
// machine and owner names — through tables keyed on the raw field
// text, so replay parses each distinct text once.  The tables die with
// the call: a hit is only ever a field byte-identical to one that
// already passed every check in this same replay.  Nothing handed to
// the queue aliases the log.
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

// applyEntry replays one journal record against the queue.  Records
// are facts, not requests: they were written ahead of transitions
// that then happened, so they apply unconditionally — except to a job
// the history holds, which the history wins.
func (rp *replayer) applyEntry(payload []byte) error {
	if err := rp.Scan(payload); err != nil {
		return err
	}
	s := rp.s
	id, at := JobID(rp.Int("id")), sim.Time(rp.Int("at"))
	if rp.Err != nil {
		return rp.Err
	}
	op, _ := rp.Get("op")
	if _, ok := s.retired[id]; ok {
		return rp.skipRetired(string(op), id, at)
	}
	if string(op) == "submit" {
		return rp.replaySubmit(id, at)
	}
	j, ok := s.jobs[id]
	if !ok {
		return fmt.Errorf("%s record for unknown job %d", op, id)
	}
	switch string(op) {
	case "match":
		s.setState(j, JobMatched)
	case "claim-timeout", "claim-denied":
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
		j.flockedTo, j.flockLevel, j.flockedAt = to, level, at
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
	return nil
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

// replaySubmit rebuilds one job from a submit record.
func (rp *replayer) replaySubmit(id JobID, at sim.Time) error {
	j, err := rp.decodeJob(id, at)
	if err != nil {
		return err
	}
	rp.enqueue(j)
	return nil
}

// enqueue adds a rebuilt job to the queue.
func (rp *replayer) enqueue(j *Job) {
	rp.s.addJob(j)
	rp.s.nextID = max(rp.s.nextID, j.ID)
}

// decodeJob builds a job from the identity fields under the cursor (a
// submit record or a snapshot or history job line).
func (rp *replayer) decodeJob(id JobID, at sim.Time) (*Job, error) {
	j := &Job{ID: id, State: JobIdle, Submitted: at,
		Owner: rp.name("owner"), Universe: rp.name("universe"), Executable: rp.Str("exe"),
		Ad: rp.ad(id), Program: rp.program(id)}
	return j, rp.Err
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
	if _, ok := rp.Get("pre"); ok { // absent in pre-preemption logs
		f.Preempted = rp.Bool("pre")
	}
	f.Hold = rp.Bool("hold")
	f.FetchError, f.LostContact = rp.scopedErr("fetch"), rp.scopedErr("lost")
	f.Reported = rp.result("rep", "reported result: ")
	f.True = rp.result("tru", "true result: ")
	return f, rp.Err
}

// applySnapshot rebuilds the queue from a snapshot payload, one line
// at a time, in place.  The lines of a job the history holds are
// skipped: the history wins.
func (rp *replayer) applySnapshot(data []byte) error {
	s := rp.s
	var cur *Job
	skipping := false
	for ln := 1; len(data) > 0; ln++ {
		line, rest, _ := bytes.Cut(data, []byte{'\n'})
		data = rest
		if len(line) == 0 {
			continue
		}
		kind, kvs, _ := bytes.Cut(line, []byte{' '})
		err := rp.Scan(kvs)
		if err != nil {
			return fmt.Errorf("line %d: %w", ln, err)
		}
		switch string(kind) {
		case "schedd":
			s.nextID = JobID(rp.Int("nextID"))
			s.Requeues = int(rp.Int("requeues"))
			s.Recoveries = int(rp.Int("recoveries"))
			if rp.Err != nil {
				return rp.Err
			}
		case "failure":
			m, rec := rp.name("machine"), failureRecord{count: int(rp.Int("count"))}
			if _, ok := rp.Get("last"); ok { // absent in pre-expiry logs
				rec.last = sim.Time(rp.Int("last"))
			}
			if rp.Err != nil {
				return rp.Err
			}
			s.machineFailures[m] = rec
			s.avoidedDirty = true
		case "job":
			if id := JobID(rp.Int("id")); rp.Err == nil {
				if _, skipping = s.retired[id]; skipping {
					cur = nil
					continue
				}
			}
			if cur, err = rp.snapshotJob(); err == nil {
				rp.enqueue(cur)
			}
		case "attempt":
			if skipping {
				continue
			}
			if cur == nil {
				return fmt.Errorf("line %d: attempt before job", ln)
			}
			var a Attempt
			if a, err = rp.decodeAttempt(); err == nil {
				cur.Attempts = append(cur.Attempts, a)
			}
		case "report":
			var r UserReport
			if r, err = rp.decodeReport(); err == nil {
				if _, ok := s.retired[r.Job]; !ok {
					s.reports = append(s.reports, r)
				}
			}
		default:
			return fmt.Errorf("line %d: unknown snapshot line %q", ln, kind)
		}
		if err != nil {
			return fmt.Errorf("line %d: %w", ln, err)
		}
	}
	return nil
}

// snapshotJob decodes the snapshot or history job line under the
// cursor; nothing is registered.
func (rp *replayer) snapshotJob() (*Job, error) {
	id := JobID(rp.Int("id"))
	if rp.Err != nil {
		return nil, rp.Err
	}
	j, err := rp.decodeJob(id, 0)
	if err != nil {
		return nil, err
	}
	state, _ := rp.Get("state")
	if j.State, err = parseJobState(state); err != nil {
		return nil, err
	}
	j.CheckpointCPU = durationNS(rp.Int("ckpt"))
	j.avoidanceRelaxed = rp.Bool("relaxed")
	j.Submitted, j.Finished = sim.Time(rp.Int("submitted")), sim.Time(rp.Int("finished"))
	j.FinalErr = rp.scopedErr("finalerr")
	return j, rp.Err
}

func (rp *replayer) decodeAttempt() (Attempt, error) {
	a := Attempt{Machine: rp.name("machine"),
		Start: sim.Time(rp.Int("start")), End: sim.Time(rp.Int("end")),
		CPU: durationNS(rp.Int("cpu")), Evicted: rp.Bool("evicted")}
	if _, ok := rp.Get("pre"); ok { // absent in pre-preemption logs
		a.Preempted = rp.Bool("pre")
	}
	a.FetchError, a.LostContact = rp.scopedErr("fetch"), rp.scopedErr("lost")
	a.Reported, a.True = rp.result("rep", ""), rp.result("tru", "")
	return a, rp.Err
}

func (rp *replayer) decodeReport() (UserReport, error) {
	r := UserReport{Job: JobID(rp.Int("job"))}
	if rp.Err != nil {
		return r, rp.Err
	}
	disp, _ := rp.Get("disp")
	var err error
	if r.Disposition, err = parseDisposition(disp); err != nil {
		return r, err
	}
	r.Result, r.Err = rp.result("result", ""), rp.scopedErr("err")
	r.IncidentalLeak = rp.Bool("leak")
	return r, rp.Err
}

// --- history ---------------------------------------------------------

// retiredJob is one job the history holds: the *Job itself, once this
// process retired or decoded it, or else its job and attempt lines in
// the history as the last Recover read it.
type retiredJob struct {
	j     *Job
	lines []byte
}

// readHistory indexes the history for Recover without decoding a
// retired job: the journal checks each frame's checksum and stops at
// the first bad one, as it does for the write-ahead journal; each
// frame's header and line kinds are checked and its job ids read;
// each job's lines and each frame's report block are kept for
// retiredJob and Reports to decode on demand; and the retired tallies
// are the last frame's header.
func (rp *replayer) readHistory(r journal.Replay) error {
	s := rp.s
	s.retired = make(map[JobID]retiredJob)
	s.retiredTally, s.retiredReports, s.histReports = Tally{}, nil, nil
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

// indexFrame indexes one history frame: its header, then job lines
// each followed by its attempt lines, then report lines.
func (rp *replayer) indexFrame(data []byte) error {
	s := rp.s
	header, data, _ := bytes.Cut(data, []byte{'\n'})
	kind, kvs, _ := bytes.Cut(header, []byte{' '})
	if string(kind) != "history" {
		return fmt.Errorf("header %q", kind)
	}
	if err := rp.Scan(kvs); err != nil {
		return err
	}
	t := rp.tally()
	if rp.Err != nil {
		return rp.Err
	}
	var cur JobID
	start := -1 // offset of cur's job line
	for off := 0; off < len(data); {
		end := off + bytes.IndexByte(data[off:], '\n')
		if end < off {
			end = len(data)
		}
		line := data[off:end]
		kind, kvs, _ := bytes.Cut(line, []byte{' '})
		switch string(kind) {
		case "job":
			if start >= 0 {
				s.retired[cur] = retiredJob{lines: data[start:off]}
			}
			id, err := rp.jobID(kvs)
			if err != nil {
				return err
			}
			if _, dup := s.retired[id]; dup {
				return fmt.Errorf("job %d retired twice", id)
			}
			rp.lastRetired = max(rp.lastRetired, id)
			cur, start = id, off
		case "attempt":
			if start < 0 {
				return errors.New("attempt before job")
			}
		case "report":
			if start >= 0 {
				s.retired[cur] = retiredJob{lines: data[start:off]}
			}
			for rest := data[off:]; len(rest) > 0; {
				line, rest, _ = bytes.Cut(rest, []byte{'\n'})
				if !bytes.HasPrefix(line, []byte("report ")) {
					return fmt.Errorf("%q line after the reports", line)
				}
			}
			s.histReports = append(s.histReports, data[off:])
			s.retiredTally = t
			return nil
		case "":
		default:
			return fmt.Errorf("unknown history line %q", kind)
		}
		off = end + 1
	}
	if start >= 0 {
		s.retired[cur] = retiredJob{lines: data[start:]}
	}
	s.retiredTally = t
	return nil
}

// jobID reads the id of a job line from its fields.  The writer puts
// id first, so the id is read without scanning the rest of the line;
// any other spelling is scanned in full.
func (rp *replayer) jobID(kvs []byte) (JobID, error) {
	if v, ok := bytes.CutPrefix(kvs, []byte("id=")); ok {
		if sp := bytes.IndexByte(v, ' '); sp >= 0 {
			v = v[:sp]
		}
		if n, err := strconv.ParseInt(string(v), 10, 64); err == nil {
			return JobID(n), nil
		}
	}
	if err := rp.Scan(kvs); err != nil {
		return 0, err
	}
	id := JobID(rp.Int("id"))
	return id, rp.Err
}

// tally reads a history frame header.
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

// retiredJob returns the retired job id, decoding its history lines on
// first use, or nil when id is not retired or its lines do not decode
// (the checksum passed, so only a forged history gets there).  A
// non-nil rp is a replayer shared across a walk, so the jobs it
// decodes share their ad templates, programs and names.
func (s *Schedd) retiredJob(id JobID, rp *replayer) *Job {
	r, ok := s.retired[id]
	if !ok || r.j != nil || r.lines == nil {
		return r.j
	}
	if rp == nil {
		rp = newReplayer(s)
	}
	j, err := rp.decodeRetired(id, r.lines)
	if err != nil {
		j = nil
	}
	s.retired[id] = retiredJob{j: j}
	return j
}

// decodeRetired decodes one retired job's history lines: its job line,
// then its attempts.
func (rp *replayer) decodeRetired(id JobID, data []byte) (*Job, error) {
	var j *Job
	for len(data) > 0 {
		var line []byte
		line, data, _ = bytes.Cut(data, []byte{'\n'})
		if len(line) == 0 {
			continue
		}
		kind, kvs, _ := bytes.Cut(line, []byte{' '})
		if err := rp.Scan(kvs); err != nil {
			return nil, err
		}
		if j == nil {
			var err error
			if j, err = rp.snapshotJob(); err != nil {
				return nil, err
			}
			if j.ID != id {
				return nil, fmt.Errorf("history line for job %d indexed as %d", j.ID, id)
			}
			continue
		}
		if string(kind) != "attempt" {
			return nil, fmt.Errorf("%q line inside job %d", kind, id)
		}
		a, err := rp.decodeAttempt()
		if err != nil {
			return nil, err
		}
		j.Attempts = append(j.Attempts, a)
	}
	return j, nil
}

// decodeHistoryReports decodes the report blocks Recover indexed, once,
// ahead of the reports retired since: they are older.  A report line
// that does not decode is dropped (only a forged history has one).
func (s *Schedd) decodeHistoryReports() {
	if len(s.histReports) == 0 {
		return
	}
	rp := newReplayer(s)
	var out []UserReport
	for _, data := range s.histReports {
		for len(data) > 0 {
			var line []byte
			line, data, _ = bytes.Cut(data, []byte{'\n'})
			_, kvs, _ := bytes.Cut(line, []byte{' '})
			if rp.Scan(kvs) != nil {
				continue
			}
			if r, err := rp.decodeReport(); err == nil {
				out = append(out, r)
			}
		}
	}
	s.retiredReports = append(out, s.retiredReports...)
	s.histReports = nil
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

func parseJobState(name []byte) (JobState, error) {
	for i, n := range jobStateNames {
		if n == string(name) {
			return JobState(i), nil
		}
	}
	return 0, fmt.Errorf("unknown job state %q", name)
}

func parseDisposition(name []byte) (scope.Disposition, error) {
	for _, d := range []scope.Disposition{
		scope.DispositionComplete, scope.DispositionUnexecutable,
		scope.DispositionRequeue, scope.DispositionHold,
	} {
		if d.String() == string(name) {
			return d, nil
		}
	}
	return 0, fmt.Errorf("unknown disposition %q", name)
}
