package daemon

// The read side of the schedd journal: rebuilding the queue from the
// records and snapshots scheddjournal.go writes.  DESIGN.md ("Schedd
// journal: record language and replay") has the field grammar.

import (
	"bytes"
	"fmt"
	"strconv"
	"time"
	"unicode/utf8"

	"github.com/errscope/grid/internal/classad"
	"github.com/errscope/grid/internal/jvm"
	"github.com/errscope/grid/internal/scope"
	"github.com/errscope/grid/internal/sim"
)

// replayer rebuilds the queue for one Recover call.  It scans every
// record and snapshot line into one reused field cursor, and resolves
// what a queue repeats — job ads, programs, results, machine and
// owner names — through tables keyed on the raw field text, so
// replay parses each distinct text once.  The tables die with the
// Recover call: a hit is only ever a field byte-identical to one that
// already passed every check in this same replay.  Nothing handed to
// the queue aliases the log.
type replayer struct {
	s *Schedd
	fields

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
// that then happened, so they apply unconditionally.
func (rp *replayer) applyEntry(payload []byte) error {
	if err := rp.scan(payload); err != nil {
		return err
	}
	s := rp.s
	id, at := JobID(rp.int("id")), sim.Time(rp.int("at"))
	if rp.err != nil {
		return rp.err
	}
	op, _ := rp.get("op")
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
		if rp.err != nil {
			return rp.err
		}
		s.setState(j, JobRunning)
		j.avoidanceRelaxed = false
		s.resetFlock(j)
		j.Attempts = append(j.Attempts, Attempt{Machine: machine, Start: at})
	case "relax":
		j.avoidanceRelaxed = true
	case "ckpt":
		cpu := durationNS(rp.int("cpu"))
		if rp.err != nil {
			return rp.err
		}
		if cpu > j.CheckpointCPU {
			j.CheckpointCPU = cpu
		}
	case "flock":
		level, to := int(rp.int("level")), rp.name("to")
		if rp.err != nil {
			return rp.err
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

// replaySubmit rebuilds one job from the identity fields under the
// cursor (a submit record or a snapshot job line).
func (rp *replayer) replaySubmit(id JobID, at sim.Time) error {
	j := &Job{ID: id, State: JobIdle, Submitted: at,
		Owner: rp.name("owner"), Universe: rp.name("universe"), Executable: rp.str("exe"),
		Ad: rp.ad(id), Program: rp.program(id)}
	if rp.err != nil {
		return rp.err
	}
	rp.s.addJob(j)
	if id > rp.s.nextID {
		rp.s.nextID = id
	}
	return nil
}

// ad returns the job's ad: its own Ad, a Copy of the template parsed
// and precompiled the first time this replay met the field's text.
// The copy shares the immutable expressions, the compiled
// Requirements/Rank, the attribute table and the rendering, and
// nothing mutable — so per-job edits and the matchmaker's pointer
// check work exactly as for a freshly parsed ad.
func (rp *replayer) ad(id JobID) *classad.Ad {
	raw := rp.need("ad")
	if rp.err != nil {
		return nil
	}
	tmpl, ok := rp.ads[string(raw)]
	if !ok {
		src := rp.unquote("ad", raw)
		if rp.err != nil {
			return nil
		}
		if src != "" {
			var err error
			if tmpl, err = classad.Parse(src); err != nil {
				rp.err = fmt.Errorf("job %d ad: %w", id, err)
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
	raw := rp.need("prog")
	if rp.err != nil {
		return nil
	}
	prog, ok := rp.progs[string(raw)]
	if !ok {
		src := rp.unquote("prog", raw)
		if rp.err != nil {
			return nil
		}
		var err error
		if prog, err = jvm.ParseProgram(src); err != nil {
			rp.err = fmt.Errorf("job %d program: %w", id, err)
			return nil
		}
		rp.progs[string(raw)] = prog
	}
	return prog
}

func (rp *replayer) decodeFinal(id JobID) (jobFinalMsg, error) {
	f := jobFinalMsg{Job: id, Machine: rp.name("machine"),
		CPU: durationNS(rp.int("cpu")), CheckpointCPU: durationNS(rp.int("ckpt")),
		Evicted: rp.bool("evicted")}
	if _, ok := rp.get("pre"); ok { // absent in pre-preemption logs
		f.Preempted = rp.bool("pre")
	}
	f.Hold = rp.bool("hold")
	f.FetchError, f.LostContact = rp.scopedErr("fetch"), rp.scopedErr("lost")
	f.Reported = rp.result("rep", "reported result: ")
	f.True = rp.result("tru", "true result: ")
	return f, rp.err
}

// applySnapshot rebuilds the queue from a snapshot payload, one line
// at a time, in place.
func (rp *replayer) applySnapshot(data []byte) error {
	s := rp.s
	var cur *Job
	for ln := 1; len(data) > 0; ln++ {
		line, rest, _ := bytes.Cut(data, []byte{'\n'})
		data = rest
		if len(line) == 0 {
			continue
		}
		kind, kvs, _ := bytes.Cut(line, []byte{' '})
		err := rp.scan(kvs)
		if err != nil {
			return fmt.Errorf("line %d: %w", ln, err)
		}
		switch string(kind) {
		case "schedd":
			s.nextID = JobID(rp.int("nextID"))
			s.Requeues = int(rp.int("requeues"))
			s.Recoveries = int(rp.int("recoveries"))
			if rp.err != nil {
				return rp.err
			}
		case "failure":
			m, rec := rp.name("machine"), failureRecord{count: int(rp.int("count"))}
			if _, ok := rp.get("last"); ok { // absent in pre-expiry logs
				rec.last = sim.Time(rp.int("last"))
			}
			if rp.err != nil {
				return rp.err
			}
			s.machineFailures[m] = rec
			s.avoidedDirty = true
		case "job":
			cur, err = rp.snapshotJob()
		case "attempt":
			if cur == nil {
				return fmt.Errorf("line %d: attempt before job", ln)
			}
			err = rp.snapshotAttempt(cur)
		case "report":
			err = rp.snapshotReport()
		default:
			return fmt.Errorf("line %d: unknown snapshot line %q", ln, kind)
		}
		if err != nil {
			return fmt.Errorf("line %d: %w", ln, err)
		}
	}
	return nil
}

func (rp *replayer) snapshotJob() (*Job, error) {
	id := JobID(rp.int("id"))
	if rp.err != nil {
		return nil, rp.err
	}
	if err := rp.replaySubmit(id, 0); err != nil {
		return nil, err
	}
	j := rp.s.jobs[id]
	state, _ := rp.get("state")
	st, err := parseJobState(state)
	if err != nil {
		return nil, err
	}
	rp.s.setState(j, st)
	j.CheckpointCPU = durationNS(rp.int("ckpt"))
	j.avoidanceRelaxed = rp.bool("relaxed")
	j.Submitted, j.Finished = sim.Time(rp.int("submitted")), sim.Time(rp.int("finished"))
	j.FinalErr = rp.scopedErr("finalerr")
	return j, rp.err
}

func (rp *replayer) snapshotAttempt(j *Job) error {
	a := Attempt{Machine: rp.name("machine"),
		Start: sim.Time(rp.int("start")), End: sim.Time(rp.int("end")),
		CPU: durationNS(rp.int("cpu")), Evicted: rp.bool("evicted")}
	if _, ok := rp.get("pre"); ok { // absent in pre-preemption logs
		a.Preempted = rp.bool("pre")
	}
	a.FetchError, a.LostContact = rp.scopedErr("fetch"), rp.scopedErr("lost")
	a.Reported, a.True = rp.result("rep", ""), rp.result("tru", "")
	if rp.err != nil {
		return rp.err
	}
	j.Attempts = append(j.Attempts, a)
	return nil
}

func (rp *replayer) snapshotReport() error {
	r := UserReport{Job: JobID(rp.int("job"))}
	if rp.err != nil {
		return rp.err
	}
	disp, _ := rp.get("disp")
	var err error
	if r.Disposition, err = parseDisposition(disp); err != nil {
		return err
	}
	r.Result, r.Err = rp.result("result", ""), rp.scopedErr("err")
	r.IncidentalLeak = rp.bool("leak")
	if rp.err != nil {
		return rp.err
	}
	rp.s.Reports = append(rp.s.Reports, r)
	return nil
}

// name is str for the fields a queue repeats — machine, owner,
// universe, flock target — so the rebuilt jobs share one string per
// distinct value.
func (rp *replayer) name(key string) string {
	raw := rp.need(key)
	if rp.err != nil {
		return ""
	}
	v, ok := rp.names[string(raw)]
	if !ok {
		if v = rp.unquote(key, raw); rp.err == nil {
			rp.names[string(raw)] = v
		}
	}
	return v
}

// result decodes a quoted result-file field; what prefixes a decode
// error the way the record's decoder always has.
func (rp *replayer) result(key, what string) scope.Result {
	raw := rp.need(key)
	if rp.err != nil {
		return scope.Result{}
	}
	r, ok := rp.results[string(raw)]
	if !ok {
		src := rp.unquote(key, raw)
		if rp.err != nil {
			return scope.Result{}
		}
		var err error
		if r, err = scope.DecodeResultString(src); err != nil {
			rp.err = fmt.Errorf("%s%w", what, err)
			return r
		}
		rp.results[string(raw)] = r
	}
	return r
}

// scopedErr decodes a quoted encodeScopedErr field.  Errors are
// pointers the queue may annotate later, so they are never shared.
func (rp *replayer) scopedErr(key string) error {
	enc := rp.str(key)
	if rp.err != nil {
		return nil
	}
	e, err := decodeScopedErr(enc)
	rp.err = err
	return e
}

// --- field cursor ------------------------------------------------------

// fields is the cursor over one record line: the key and raw value of
// every key=value pair, in line order, in a slice reused from line to
// line.  Values are bare tokens (numbers, names) or Go-quoted strings
// that may contain spaces, quotes, and escaped newlines.  Lookup is
// by key, last duplicate wins, and keys nobody asks for are ignored.
//
// The typed accessors share one sticky error: the first field that is
// missing or malformed sets err, and every accessor after it returns
// the zero value without looking, so a decoder reads its fields in
// the order it always did and checks err where it used to return.
type fields struct {
	kv  []field
	err error
}

type field struct{ key, val []byte }

// scan points the cursor at line.  The spans alias line.
func (f *fields) scan(line []byte) error {
	f.kv, f.err = f.kv[:0], nil
	for i := 0; i < len(line); {
		if line[i] == ' ' {
			i++
			continue
		}
		eq := bytes.IndexByte(line[i:], '=')
		if eq < 0 {
			return fmt.Errorf("no '=' in %q", line[i:])
		}
		key := line[i : i+eq]
		i += eq + 1
		end := i
		if i < len(line) && line[i] == '"' {
			for end++; end < len(line) && line[end] != '"'; end++ {
				if line[end] == '\\' {
					end++
				}
			}
			if end >= len(line) {
				return fmt.Errorf("unterminated quote for %q", key)
			}
			end++
		} else if sp := bytes.IndexByte(line[i:], ' '); sp >= 0 {
			end += sp
		} else {
			end = len(line)
		}
		f.kv = append(f.kv, field{key, line[i:end]})
		i = end
	}
	return nil
}

// get returns the raw value of key, quotes included.
func (f *fields) get(key string) ([]byte, bool) {
	for i := len(f.kv) - 1; i >= 0; i-- {
		if string(f.kv[i].key) == key {
			return f.kv[i].val, true
		}
	}
	return nil, false
}

// need is get for a mandatory field.
func (f *fields) need(key string) []byte {
	if f.err != nil {
		return nil
	}
	raw, ok := f.get(key)
	if !ok {
		f.err = fmt.Errorf("missing field %q", key)
	}
	return raw
}

// fail records a malformed field.
func (f *fields) fail(key string, err error) {
	f.err = fmt.Errorf("field %q: %w", key, err)
}

func (f *fields) int(key string) int64 {
	raw := f.need(key)
	if f.err != nil {
		return 0
	}
	v, err := strconv.ParseInt(string(raw), 10, 64)
	if err != nil {
		f.fail(key, err)
	}
	return v
}

func (f *fields) bool(key string) bool {
	raw := f.need(key)
	if f.err != nil {
		return false
	}
	v, err := strconv.ParseBool(string(raw))
	if err != nil {
		f.fail(key, err)
	}
	return v
}

// str returns the unquoted value of key as a fresh string.
func (f *fields) str(key string) string { return f.unquote(key, f.need(key)) }

// unquote is strconv.Unquote over the raw bytes of key's value.  A
// double-quoted value with no backslash, no newline and valid UTF-8
// is its own interior — Unquote's escape-free case, taken here
// without first copying the bytes into a string for it.
func (f *fields) unquote(key string, raw []byte) string {
	if f.err != nil {
		return ""
	}
	if n := len(raw); n >= 2 && raw[0] == '"' && raw[n-1] == '"' {
		if in := raw[1 : n-1]; !bytes.ContainsAny(in, "\\\n\"") && utf8.Valid(in) {
			return string(in)
		}
	}
	v, err := strconv.Unquote(string(raw))
	if err != nil {
		f.fail(key, err)
	}
	return v
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
