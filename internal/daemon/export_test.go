package daemon

// Test-only views into the daemons, for the package daemon_test files
// that drive whole pools through package pool.

import (
	"bytes"
	"fmt"
	"slices"
	"sync"

	"github.com/errscope/grid/internal/jvm"
	"github.com/errscope/grid/internal/record"
)

// RefNegotiate runs one negotiation cycle of m through the reference
// scan (matchmaker_ref_test.go) instead of the auto-clustered one.
func RefNegotiate(m *Matchmaker) { m.refNegotiate() }

// CheckScheddIndex checks the schedd's derived queue indexes against
// a scan of the queue itself — the scans, folds and ad copy the schedd
// once ran instead of keeping them:
//
//   - nonTerminal (AllTerminal's answer) counts the non-terminal jobs;
//   - the live slots of idleOrder (the refresh's walks) are exactly
//     the JobIdle jobs, each once, and each holds its slot;
//   - the live list is the id index in id order, the window holds
//     nothing else and starts and ends at a live job, no live job is
//     also retired, and every live report belongs to a live terminal
//     job;
//   - Tally, folded at transitions, equals the full fold: the retired
//     tallies, every live job, and the leaks of the live reports;
//   - each live job's log, replayed into an empty queue, rebuilds the
//     job, and its first record still carries the ad as it renders
//     now: the ad is shared with the matchmaker and the claim request,
//     never copied, so nothing downstream may mutate it.
func CheckScheddIndex(s *Schedd) error {
	nonTerminal, idle, indexed := 0, 0, len(s.jobs.far)
	for _, j := range s.jobs.slots {
		if j != nil {
			indexed++
		}
	}
	if len(s.live) != indexed {
		return fmt.Errorf("schedd %s: %d live jobs listed, %d indexed", s.name, len(s.live), indexed)
	}
	if w := s.jobs; len(w.slots) > 0 && (w.slots[0] == nil || w.slots[len(w.slots)-1] == nil) {
		return fmt.Errorf("schedd %s: the job window [%d, %d) is not trimmed to live ids",
			s.name, w.base, w.base+JobID(len(w.slots)))
	}
	verifiedLogs.Lock()
	defer verifiedLogs.Unlock()
	if len(verifiedLogs.jobs) >= 8 || verifiedLogs.jobs == nil {
		verifiedLogs.jobs = make(map[*Schedd]map[*Job]*verifiedJob)
	}
	verified := verifiedLogs.jobs[s]
	if verified == nil {
		verified = make(map[*Job]*verifiedJob)
		verifiedLogs.jobs[s] = verified
	}
	rp := newReplayer(s.scratchQueue())
	tally := s.retiredTally
	for i, j := range s.live {
		id := j.ID
		if s.jobs.get(id) != j || i > 0 && s.live[i-1].ID >= id {
			return fmt.Errorf("schedd %s: live slot %d (job %d) out of order or unindexed", s.name, i, id)
		}
		if _, ok := s.retired[id]; ok {
			return fmt.Errorf("schedd %s: job %d both live and retired", s.name, id)
		}
		if err := logReplays(rp, verified, j); err != nil {
			return fmt.Errorf("schedd %s: job %d: %w", s.name, id, err)
		}
		tally.Add(j)
		if !j.State.Terminal() {
			nonTerminal++
		}
		if j.State == JobIdle {
			idle++
			if pos := j.idleSlot - 1; pos < 0 || pos >= len(s.idleOrder) || s.idleOrder[pos] != j {
				return fmt.Errorf("schedd %s: idle job %d not at its idle slot", s.name, id)
			}
		} else if j.idleSlot != 0 {
			return fmt.Errorf("schedd %s: %s job %d holds idle slot %d", s.name, j.State, id, j.idleSlot)
		}
	}
	if nonTerminal != s.nonTerminal {
		return fmt.Errorf("schedd %s: nonTerminal = %d, queue holds %d non-terminal jobs",
			s.name, s.nonTerminal, nonTerminal)
	}
	for _, r := range s.reports {
		if j := s.jobs.get(r.Job); j == nil || !j.State.Terminal() {
			return fmt.Errorf("schedd %s: live report for job %d, which is not a live terminal job", s.name, r.Job)
		}
		if r.IncidentalLeak {
			tally.IncidentalLeaks++
		}
	}
	if got := s.Tally(); got != tally {
		return fmt.Errorf("schedd %s: Tally() = %+v, the full fold is %+v", s.name, got, tally)
	}
	live := 0
	for pos, j := range s.idleOrder {
		if j == nil {
			continue
		}
		live++
		if j.State != JobIdle || s.jobs.get(j.ID) != j || j.idleSlot != pos+1 {
			return fmt.Errorf("schedd %s: idleOrder slot %d holds job %d in state %s",
				s.name, pos, j.ID, j.State)
		}
	}
	if live != idle || s.idleStale != len(s.idleOrder)-live {
		return fmt.Errorf("schedd %s: %d idle jobs, %d live idleOrder slots, %d of %d slots counted stale",
			s.name, idle, live, s.idleStale, len(s.idleOrder))
	}
	return nil
}

// verifiedLogs holds, per schedd and live job, the job as its log last
// replayed to it.  A log only grows, so while a job and its log both
// stand as verified the replay would find what it found then, and the
// check replays a log again only when either has changed since.  It
// keeps the last few schedds checked: a pool's are checked after every
// event, and a recovered schedd's only once.
var verifiedLogs struct {
	sync.Mutex
	jobs map[*Schedd]map[*Job]*verifiedJob
}

type verifiedJob struct {
	job      Job // a shallow copy
	attempts []Attempt
	ad       string
}

// unchanged reports whether j and its log are as v verified them.
func (v *verifiedJob) unchanged(j *Job) bool {
	c := &v.job
	return len(j.log) == len(c.log) && j.ID == c.ID && j.Owner == c.Owner && j.Universe == c.Universe &&
		j.Executable == c.Executable && j.Ad == c.Ad && j.Program == c.Program && j.State == c.State &&
		j.CheckpointCPU == c.CheckpointCPU && j.FinalErr == c.FinalErr && j.Submitted == c.Submitted &&
		j.Finished == c.Finished && j.avoidanceRelaxed == c.avoidanceRelaxed && j.flockedTo == c.flockedTo &&
		j.flockLevel == c.flockLevel && j.flockedAt == c.flockedAt && slices.Equal(j.Attempts, v.attempts) &&
		(j.Ad == nil || j.Ad.String() == v.ad)
}

// sameJob reports whether a replayed job a holds what the live job b
// does: every field jobSummary renders, and the avoidance and flock
// fields the journal also carries.  Errors and programs are decoded
// afresh, so they compare by their text.
func sameJob(a, b *Job) bool {
	if a.ID != b.ID || a.Owner != b.Owner || a.Universe != b.Universe || a.Executable != b.Executable ||
		a.State != b.State || a.CheckpointCPU != b.CheckpointCPU || a.Submitted != b.Submitted ||
		a.Finished != b.Finished || errString(a.FinalErr) != errString(b.FinalErr) ||
		(a.Ad == nil) != (b.Ad == nil) || a.Ad != nil && a.Ad.String() != b.Ad.String() ||
		a.avoidanceRelaxed != b.avoidanceRelaxed || a.flockedTo != b.flockedTo ||
		a.flockLevel != b.flockLevel || a.flockedAt != b.flockedAt || len(a.Attempts) != len(b.Attempts) ||
		jvm.EncodeProgram(a.Program) != jvm.EncodeProgram(b.Program) {
		return false
	}
	for i := range a.Attempts {
		x, y := &a.Attempts[i], &b.Attempts[i]
		if x.Machine != y.Machine || x.Start != y.Start || x.End != y.End || x.CPU != y.CPU ||
			x.Evicted != y.Evicted || x.Preempted != y.Preempted || x.Reported != y.Reported || x.True != y.True ||
			errString(x.FetchError) != errString(y.FetchError) || errString(x.LostContact) != errString(y.LostContact) {
			return false
		}
	}
	return true
}

// logReplays replays a live job's log into rp's scratch queue and
// checks that it rebuilds the job (sameJob).  The submit record comes
// first, so the ad it carries is the one rendered at Submit.
func logReplays(rp *replayer, verified map[*Job]*verifiedJob, j *Job) error {
	if v, ok := verified[j]; ok && v.unchanged(j) {
		return nil
	}
	q := rp.s
	if err := rp.applyLines(j.log); err != nil {
		return fmt.Errorf("log does not replay: %w\n%s", err, j.log)
	}
	got := q.jobs.get(j.ID)
	q.jobs.drop(j.ID)
	if got == nil || !sameJob(got, j) {
		state := func(j *Job) string {
			if j == nil {
				return "<nil>\n"
			}
			return fmt.Sprintf("%srelaxed=%t flock=%q/%d/%d\n", jobSummary(j), j.avoidanceRelaxed, j.flockedTo, j.flockLevel, j.flockedAt)
		}
		return fmt.Errorf("log replays to\n%snot to\n%slog:\n%s", state(got), state(j), j.log)
	}
	v := &verifiedJob{job: *j, attempts: slices.Clone(j.Attempts)}
	if j.Ad != nil {
		v.ad = j.Ad.String()
		first, _, _ := bytes.Cut(j.log, []byte{'\n'})
		if !bytes.Contains(first, record.AppendStr(nil, "ad", v.ad)) {
			return fmt.Errorf("ad changed since submit: %s", j.Ad)
		}
	}
	verified[j] = v
	return nil
}

// CheckRequests checks the matchmaker's request table (checkRequests).
func CheckRequests(m *Matchmaker) error { return m.checkRequests() }
