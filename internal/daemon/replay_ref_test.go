package daemon

// The schedd-journal decoder as it stood before the field cursor
// (PR 16's scheddjournal.go), kept verbatim as the oracle for the
// differential tests and FuzzScheddReplay: every function body below
// is the old one, with only the callee names prefixed "ref" so both
// decoders live in one package.  Do not optimise or fix it; a
// deliberate difference between the two decoders belongs in
// CHANGES.md with the input that shows it.

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/errscope/grid/internal/classad"
	"github.com/errscope/grid/internal/jvm"
	"github.com/errscope/grid/internal/scope"
	"github.com/errscope/grid/internal/sim"
)

func (s *Schedd) refApplyEntry(payload []byte) error {
	kv, err := refScanKV(string(payload))
	if err != nil {
		return err
	}
	id, err := refParseInt64(kv, "id")
	if err != nil {
		return err
	}
	at, err := refParseInt64(kv, "at")
	if err != nil {
		return err
	}
	op := kv["op"]
	if op == "submit" {
		return s.refReplaySubmit(JobID(id), sim.Time(at), kv)
	}
	j, ok := s.jobs[JobID(id)]
	if !ok {
		return fmt.Errorf("%s record for unknown job %d", op, id)
	}
	switch op {
	case "match":
		s.setState(j, JobMatched)
	case "claim-timeout", "claim-denied":
		s.setState(j, JobIdle)
	case "exec":
		machine, err := refUnquoted(kv, "machine")
		if err != nil {
			return err
		}
		s.setState(j, JobRunning)
		j.avoidanceRelaxed = false
		s.resetFlock(j)
		j.Attempts = append(j.Attempts, Attempt{Machine: machine, Start: sim.Time(at)})
	case "relax":
		j.avoidanceRelaxed = true
	case "ckpt":
		cpu, err := refParseInt64(kv, "cpu")
		if err != nil {
			return err
		}
		if d := durationNS(cpu); d > j.CheckpointCPU {
			j.CheckpointCPU = d
		}
	case "flock":
		level, err := refParseInt64(kv, "level")
		if err != nil {
			return err
		}
		to, err := refUnquoted(kv, "to")
		if err != nil {
			return err
		}
		j.flockedTo, j.flockLevel = to, int(level)
		j.flockedAt = sim.Time(at)
	case "final":
		f, err := refDecodeFinal(JobID(id), kv)
		if err != nil {
			return err
		}
		s.applyFinal(j, f, finalError(f), sim.Time(at))
	case "recover":
		s.normalizeJob(j, sim.Time(at))
	default:
		return fmt.Errorf("unknown record op %q", op)
	}
	return nil
}

func (s *Schedd) refReplaySubmit(id JobID, at sim.Time, kv map[string]string) error {
	j := &Job{ID: id, State: JobIdle, Submitted: at}
	var err error
	if j.Owner, err = refUnquoted(kv, "owner"); err != nil {
		return err
	}
	if j.Universe, err = refUnquoted(kv, "universe"); err != nil {
		return err
	}
	if j.Executable, err = refUnquoted(kv, "exe"); err != nil {
		return err
	}
	adSrc, err := refUnquoted(kv, "ad")
	if err != nil {
		return err
	}
	if adSrc != "" {
		if j.Ad, err = classad.Parse(adSrc); err != nil {
			return fmt.Errorf("job %d ad: %w", id, err)
		}
		j.Ad.Precompile()
	}
	progSrc, err := refUnquoted(kv, "prog")
	if err != nil {
		return err
	}
	if j.Program, err = jvm.ParseProgram(progSrc); err != nil {
		return fmt.Errorf("job %d program: %w", id, err)
	}
	s.addJob(j)
	if id > s.nextID {
		s.nextID = id
	}
	return nil
}

func refDecodeFinal(id JobID, kv map[string]string) (jobFinalMsg, error) {
	f := jobFinalMsg{Job: id}
	var err error
	if f.Machine, err = refUnquoted(kv, "machine"); err != nil {
		return f, err
	}
	cpu, err := refParseInt64(kv, "cpu")
	if err != nil {
		return f, err
	}
	ckpt, err := refParseInt64(kv, "ckpt")
	if err != nil {
		return f, err
	}
	f.CPU, f.CheckpointCPU = durationNS(cpu), durationNS(ckpt)
	if f.Evicted, err = refParseBool(kv, "evicted"); err != nil {
		return f, err
	}
	if _, ok := kv["pre"]; ok { // absent in pre-preemption logs
		if f.Preempted, err = refParseBool(kv, "pre"); err != nil {
			return f, err
		}
	}
	if f.Hold, err = refParseBool(kv, "hold"); err != nil {
		return f, err
	}
	fetch, err := refUnquoted(kv, "fetch")
	if err != nil {
		return f, err
	}
	if f.FetchError, err = decodeScopedErr(fetch); err != nil {
		return f, err
	}
	lost, err := refUnquoted(kv, "lost")
	if err != nil {
		return f, err
	}
	if f.LostContact, err = decodeScopedErr(lost); err != nil {
		return f, err
	}
	rep, err := refUnquoted(kv, "rep")
	if err != nil {
		return f, err
	}
	if f.Reported, err = scope.DecodeResultString(rep); err != nil {
		return f, fmt.Errorf("reported result: %w", err)
	}
	tru, err := refUnquoted(kv, "tru")
	if err != nil {
		return f, err
	}
	if f.True, err = scope.DecodeResultString(tru); err != nil {
		return f, fmt.Errorf("true result: %w", err)
	}
	return f, nil
}

func (s *Schedd) refApplySnapshot(data []byte) error {
	var cur *Job
	for ln, line := range strings.Split(string(data), "\n") {
		if line == "" {
			continue
		}
		kind, rest, _ := strings.Cut(line, " ")
		kv, err := refScanKV(rest)
		if err != nil {
			return fmt.Errorf("line %d: %w", ln+1, err)
		}
		switch kind {
		case "schedd":
			if v, err := refParseInt64(kv, "nextID"); err != nil {
				return err
			} else {
				s.nextID = JobID(v)
			}
			if v, err := refParseInt64(kv, "requeues"); err != nil {
				return err
			} else {
				s.Requeues = int(v)
			}
			if v, err := refParseInt64(kv, "recoveries"); err != nil {
				return err
			} else {
				s.Recoveries = int(v)
			}
		case "failure":
			m, err := refUnquoted(kv, "machine")
			if err != nil {
				return err
			}
			n, err := refParseInt64(kv, "count")
			if err != nil {
				return err
			}
			rec := failureRecord{count: int(n)}
			if _, ok := kv["last"]; ok { // absent in pre-expiry logs
				last, err := refParseInt64(kv, "last")
				if err != nil {
					return err
				}
				rec.last = sim.Time(last)
			}
			s.machineFailures[m] = rec
			s.avoidedDirty = true
		case "job":
			if cur, err = s.refSnapshotJob(kv); err != nil {
				return fmt.Errorf("line %d: %w", ln+1, err)
			}
		case "attempt":
			if cur == nil {
				return fmt.Errorf("line %d: attempt before job", ln+1)
			}
			if err := refSnapshotAttempt(cur, kv); err != nil {
				return fmt.Errorf("line %d: %w", ln+1, err)
			}
		case "report":
			if err := s.refSnapshotReport(kv); err != nil {
				return fmt.Errorf("line %d: %w", ln+1, err)
			}
		default:
			return fmt.Errorf("line %d: unknown snapshot line %q", ln+1, kind)
		}
	}
	return nil
}

func (s *Schedd) refSnapshotJob(kv map[string]string) (*Job, error) {
	id, err := refParseInt64(kv, "id")
	if err != nil {
		return nil, err
	}
	if err := s.refReplaySubmit(JobID(id), 0, kv); err != nil {
		return nil, err
	}
	j := s.jobs[JobID(id)]
	st, err := refParseJobState(kv["state"])
	if err != nil {
		return nil, err
	}
	s.setState(j, st)
	ckpt, err := refParseInt64(kv, "ckpt")
	if err != nil {
		return nil, err
	}
	j.CheckpointCPU = durationNS(ckpt)
	if j.avoidanceRelaxed, err = refParseBool(kv, "relaxed"); err != nil {
		return nil, err
	}
	sub, err := refParseInt64(kv, "submitted")
	if err != nil {
		return nil, err
	}
	fin, err := refParseInt64(kv, "finished")
	if err != nil {
		return nil, err
	}
	j.Submitted, j.Finished = sim.Time(sub), sim.Time(fin)
	fe, err := refUnquoted(kv, "finalerr")
	if err != nil {
		return nil, err
	}
	if j.FinalErr, err = decodeScopedErr(fe); err != nil {
		return nil, err
	}
	return j, nil
}

func refSnapshotAttempt(j *Job, kv map[string]string) error {
	var a Attempt
	var err error
	if a.Machine, err = refUnquoted(kv, "machine"); err != nil {
		return err
	}
	start, err := refParseInt64(kv, "start")
	if err != nil {
		return err
	}
	end, err := refParseInt64(kv, "end")
	if err != nil {
		return err
	}
	cpu, err := refParseInt64(kv, "cpu")
	if err != nil {
		return err
	}
	a.Start, a.End, a.CPU = sim.Time(start), sim.Time(end), durationNS(cpu)
	if a.Evicted, err = refParseBool(kv, "evicted"); err != nil {
		return err
	}
	if _, ok := kv["pre"]; ok { // absent in pre-preemption logs
		if a.Preempted, err = refParseBool(kv, "pre"); err != nil {
			return err
		}
	}
	fetch, err := refUnquoted(kv, "fetch")
	if err != nil {
		return err
	}
	if a.FetchError, err = decodeScopedErr(fetch); err != nil {
		return err
	}
	lost, err := refUnquoted(kv, "lost")
	if err != nil {
		return err
	}
	if a.LostContact, err = decodeScopedErr(lost); err != nil {
		return err
	}
	rep, err := refUnquoted(kv, "rep")
	if err != nil {
		return err
	}
	if a.Reported, err = scope.DecodeResultString(rep); err != nil {
		return err
	}
	tru, err := refUnquoted(kv, "tru")
	if err != nil {
		return err
	}
	if a.True, err = scope.DecodeResultString(tru); err != nil {
		return err
	}
	j.Attempts = append(j.Attempts, a)
	return nil
}

func (s *Schedd) refSnapshotReport(kv map[string]string) error {
	var r UserReport
	job, err := refParseInt64(kv, "job")
	if err != nil {
		return err
	}
	r.Job = JobID(job)
	if r.Disposition, err = refParseDisposition(kv["disp"]); err != nil {
		return err
	}
	res, err := refUnquoted(kv, "result")
	if err != nil {
		return err
	}
	if r.Result, err = scope.DecodeResultString(res); err != nil {
		return err
	}
	enc, err := refUnquoted(kv, "err")
	if err != nil {
		return err
	}
	if r.Err, err = decodeScopedErr(enc); err != nil {
		return err
	}
	if r.IncidentalLeak, err = refParseBool(kv, "leak"); err != nil {
		return err
	}
	s.Reports = append(s.Reports, r)
	return nil
}

func refScanKV(line string) (map[string]string, error) {
	kv := make(map[string]string)
	for i := 0; i < len(line); {
		if line[i] == ' ' {
			i++
			continue
		}
		eq := strings.IndexByte(line[i:], '=')
		if eq < 0 {
			return nil, fmt.Errorf("no '=' in %q", line[i:])
		}
		key := line[i : i+eq]
		i += eq + 1
		var val string
		if i < len(line) && line[i] == '"' {
			j := i + 1
			for j < len(line) {
				if line[j] == '\\' {
					j += 2
					continue
				}
				if line[j] == '"' {
					break
				}
				j++
			}
			if j >= len(line) {
				return nil, fmt.Errorf("unterminated quote for %q", key)
			}
			val = line[i : j+1]
			i = j + 1
		} else {
			end := strings.IndexByte(line[i:], ' ')
			if end < 0 {
				end = len(line) - i
			}
			val = line[i : i+end]
			i += end
		}
		kv[key] = val
	}
	return kv, nil
}

func refUnquoted(kv map[string]string, key string) (string, error) {
	raw, ok := kv[key]
	if !ok {
		return "", fmt.Errorf("missing field %q", key)
	}
	v, err := strconv.Unquote(raw)
	if err != nil {
		return "", fmt.Errorf("field %q: %w", key, err)
	}
	return v, nil
}

func refParseInt64(kv map[string]string, key string) (int64, error) {
	raw, ok := kv[key]
	if !ok {
		return 0, fmt.Errorf("missing field %q", key)
	}
	v, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("field %q: %w", key, err)
	}
	return v, nil
}

func refParseBool(kv map[string]string, key string) (bool, error) {
	raw, ok := kv[key]
	if !ok {
		return false, fmt.Errorf("missing field %q", key)
	}
	v, err := strconv.ParseBool(raw)
	if err != nil {
		return false, fmt.Errorf("field %q: %w", key, err)
	}
	return v, nil
}

func refParseJobState(name string) (JobState, error) {
	for i, n := range jobStateNames {
		if n == name {
			return JobState(i), nil
		}
	}
	return 0, fmt.Errorf("unknown job state %q", name)
}

func refParseDisposition(name string) (scope.Disposition, error) {
	for _, d := range []scope.Disposition{
		scope.DispositionComplete, scope.DispositionUnexecutable,
		scope.DispositionRequeue, scope.DispositionHold,
	} {
		if d.String() == name {
			return d, nil
		}
	}
	return 0, fmt.Errorf("unknown disposition %q", name)
}
