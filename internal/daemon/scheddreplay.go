package daemon

// The read side of the schedd journal: rebuilding the queue from the
// records and snapshots scheddjournal.go writes, through the lenient
// journal grammar of package record (record.Cursor).  DESIGN.md
// ("Record language") has the grammar.

import (
	"bytes"
	"fmt"
	"time"

	"github.com/errscope/grid/internal/classad"
	"github.com/errscope/grid/internal/jvm"
	"github.com/errscope/grid/internal/record"
	"github.com/errscope/grid/internal/scope"
	"github.com/errscope/grid/internal/sim"
)

// replayer rebuilds the queue for one Recover call.  It scans every
// record and snapshot line into one reused record.Cursor, and resolves
// what a queue repeats — job ads, programs, results, machine and
// owner names — through tables keyed on the raw field text, so
// replay parses each distinct text once.  The tables die with the
// Recover call: a hit is only ever a field byte-identical to one that
// already passed every check in this same replay.  Nothing handed to
// the queue aliases the log.
type replayer struct {
	s *Schedd
	record.Cursor

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
	if err := rp.Scan(payload); err != nil {
		return err
	}
	s := rp.s
	id, at := JobID(rp.Int("id")), sim.Time(rp.Int("at"))
	if rp.Err != nil {
		return rp.Err
	}
	op, _ := rp.Get("op")
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

// replaySubmit rebuilds one job from the identity fields under the
// cursor (a submit record or a snapshot job line).
func (rp *replayer) replaySubmit(id JobID, at sim.Time) error {
	j := &Job{ID: id, State: JobIdle, Submitted: at,
		Owner: rp.name("owner"), Universe: rp.name("universe"), Executable: rp.Str("exe"),
		Ad: rp.ad(id), Program: rp.program(id)}
	if rp.Err != nil {
		return rp.Err
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
	id := JobID(rp.Int("id"))
	if rp.Err != nil {
		return nil, rp.Err
	}
	if err := rp.replaySubmit(id, 0); err != nil {
		return nil, err
	}
	j := rp.s.jobs[id]
	state, _ := rp.Get("state")
	st, err := parseJobState(state)
	if err != nil {
		return nil, err
	}
	rp.s.setState(j, st)
	j.CheckpointCPU = durationNS(rp.Int("ckpt"))
	j.avoidanceRelaxed = rp.Bool("relaxed")
	j.Submitted, j.Finished = sim.Time(rp.Int("submitted")), sim.Time(rp.Int("finished"))
	j.FinalErr = rp.scopedErr("finalerr")
	return j, rp.Err
}

func (rp *replayer) snapshotAttempt(j *Job) error {
	a := Attempt{Machine: rp.name("machine"),
		Start: sim.Time(rp.Int("start")), End: sim.Time(rp.Int("end")),
		CPU: durationNS(rp.Int("cpu")), Evicted: rp.Bool("evicted")}
	if _, ok := rp.Get("pre"); ok { // absent in pre-preemption logs
		a.Preempted = rp.Bool("pre")
	}
	a.FetchError, a.LostContact = rp.scopedErr("fetch"), rp.scopedErr("lost")
	a.Reported, a.True = rp.result("rep", ""), rp.result("tru", "")
	if rp.Err != nil {
		return rp.Err
	}
	j.Attempts = append(j.Attempts, a)
	return nil
}

func (rp *replayer) snapshotReport() error {
	r := UserReport{Job: JobID(rp.Int("job"))}
	if rp.Err != nil {
		return rp.Err
	}
	disp, _ := rp.Get("disp")
	var err error
	if r.Disposition, err = parseDisposition(disp); err != nil {
		return err
	}
	r.Result, r.Err = rp.result("result", ""), rp.scopedErr("err")
	r.IncidentalLeak = rp.Bool("leak")
	if rp.Err != nil {
		return rp.Err
	}
	rp.s.Reports = append(rp.s.Reports, r)
	return nil
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
