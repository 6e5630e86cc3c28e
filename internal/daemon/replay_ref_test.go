package daemon

// The schedd-journal record decoder as it stood before the field
// cursor (PR 16's scheddjournal.go), kept as the oracle for the
// differential tests and FuzzScheddReplay: every function body below
// is the old one, with only the callee names prefixed "ref" so both
// decoders live in one package, and with the records the old decoder
// never saw added in its own style — the trailer and history records
// (schedd, failure, history), dispatched before id and at as the
// cursor does, the requeue record, and the match record's machine,
// which the cursor reads for its verdict.  Its snapshot
// half went with the snapshot line grammar: a snapshot is now a run of
// these records.  Do not optimise or fix it; a deliberate difference
// between the two decoders belongs in CHANGES.md with the input that
// shows it.

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
	switch kv["op"] {
	case "schedd":
		return s.refSchedd(kv)
	case "failure":
		return s.refFailure(kv)
	case "history":
		return s.refHistory(kv)
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
	j := s.jobs.get(JobID(id))
	if j == nil {
		return fmt.Errorf("%s record for unknown job %d", op, id)
	}
	switch op {
	case "match":
		if _, err := refUnquoted(kv, "machine"); err != nil {
			return err
		}
		s.setState(j, JobMatched)
	case "claim-timeout", "claim-denied", "requeue":
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

func (s *Schedd) refApplyLines(data []byte) error {
	for ln, line := range strings.Split(string(data), "\n") {
		if line == "" {
			continue
		}
		if err := s.refApplyEntry([]byte(line)); err != nil {
			return fmt.Errorf("line %d: %w", ln+1, err)
		}
	}
	return nil
}

func (s *Schedd) refSchedd(kv map[string]string) error {
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
	clear(s.machineFailures)
	s.avoidedDirty = true
	return nil
}

func (s *Schedd) refFailure(kv map[string]string) error {
	m, err := refUnquoted(kv, "machine")
	if err != nil {
		return err
	}
	n, err := refParseInt64(kv, "count")
	if err != nil {
		return err
	}
	last, err := refParseInt64(kv, "last")
	if err != nil {
		return err
	}
	s.machineFailures[m] = failureRecord{count: int(n), last: sim.Time(last)}
	s.avoidedDirty = true
	return nil
}

func (s *Schedd) refHistory(kv map[string]string) error {
	var v [11]int64
	for i, key := range []string{"completed", "unexecutable", "held", "leaks", "attempts",
		"fetch", "lost", "evictions", "goodput", "badput", "turnaround"} {
		n, err := refParseInt64(kv, key)
		if err != nil {
			return err
		}
		v[i] = n
	}
	t := Tally{Completed: int(v[0]), Unexecutable: int(v[1]), Held: int(v[2]),
		IncidentalLeaks: int(v[3]), Attempts: int(v[4]), FetchFailures: int(v[5]),
		LostContacts: int(v[6]), Evictions: int(v[7]), Goodput: durationNS(v[8]),
		Badput: durationNS(v[9]), TurnaroundTotal: durationNS(v[10])}
	t.Jobs = t.Completed + t.Unexecutable + t.Held
	s.retiredTally = t
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
