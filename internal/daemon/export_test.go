package daemon

// Test-only views into the daemons, for the package daemon_test files
// that drive whole pools through package pool.

import (
	"bytes"
	"fmt"

	"github.com/errscope/grid/internal/record"
)

// RefNegotiate runs one negotiation cycle of m through the reference
// scan (matchmaker_ref_test.go) instead of the auto-clustered one.
func RefNegotiate(m *Matchmaker) { m.refNegotiate() }

// CheckScheddIndex checks the schedd's derived queue indexes against
// a scan of the queue itself — the four scans and the ad copy the
// schedd once ran instead of keeping them:
//
//   - nonTerminal (AllTerminal's answer) counts the non-terminal jobs;
//   - the live slots of idleOrder (advertiseIdle's walk) are exactly
//     the JobIdle jobs, each once, and idlePos maps each to its slot;
//   - every job's ad still renders as it did at Submit, the identity
//     its journal submit record carries: the ad is shared with the
//     matchmaker and the claim request, never copied, so nothing
//     downstream may mutate it;
//   - the live list is the jobs map in id order, no live job is also
//     retired, and every live report belongs to a live terminal job;
//   - each live job's cached attempt lines are the lines its attempts
//     encode to now: nothing changed an attempt after it froze.
func CheckScheddIndex(s *Schedd) error {
	nonTerminal, idle := 0, 0
	if len(s.live) != len(s.jobs) {
		return fmt.Errorf("schedd %s: %d live jobs listed, %d mapped", s.name, len(s.live), len(s.jobs))
	}
	for i, j := range s.live {
		id := j.ID
		if s.jobs[id] != j || i > 0 && s.live[i-1].ID >= id {
			return fmt.Errorf("schedd %s: live slot %d (job %d) out of order or unmapped", s.name, i, id)
		}
		if _, ok := s.retired[id]; ok {
			return fmt.Errorf("schedd %s: job %d both live and retired", s.name, id)
		}
		var fresh []byte
		for k := range j.attEncN {
			fresh = appendAttempt(fresh, id, &j.Attempts[k])
		}
		if !bytes.Equal(fresh, j.attEnc) {
			return fmt.Errorf("schedd %s: job %d attempt cache is stale:\n%s\nencodes now as\n%s", s.name, id, j.attEnc, fresh)
		}
		if !j.State.Terminal() {
			nonTerminal++
		}
		if j.State == JobIdle {
			idle++
			pos, ok := s.idlePos[id]
			if !ok || pos >= len(s.idleOrder) || s.idleOrder[pos] != j {
				return fmt.Errorf("schedd %s: idle job %d not at its idlePos slot", s.name, id)
			}
		}
		if j.identEnc != nil && j.Ad != nil &&
			!bytes.Contains(j.identEnc, record.AppendStr(nil, "ad", j.Ad.String())) {
			return fmt.Errorf("schedd %s: job %d ad changed since submit: %s", s.name, id, j.Ad)
		}
	}
	if nonTerminal != s.nonTerminal {
		return fmt.Errorf("schedd %s: nonTerminal = %d, queue holds %d non-terminal jobs",
			s.name, s.nonTerminal, nonTerminal)
	}
	for _, r := range s.reports {
		if j := s.jobs[r.Job]; j == nil || !j.State.Terminal() {
			return fmt.Errorf("schedd %s: live report for job %d, which is not a live terminal job", s.name, r.Job)
		}
	}
	live := 0
	for pos, j := range s.idleOrder {
		if j == nil {
			continue
		}
		live++
		if j.State != JobIdle || s.jobs[j.ID] != j || s.idlePos[j.ID] != pos {
			return fmt.Errorf("schedd %s: idleOrder slot %d holds job %d in state %s",
				s.name, pos, j.ID, j.State)
		}
	}
	if live != idle || len(s.idlePos) != idle || s.idleStale != len(s.idleOrder)-live {
		return fmt.Errorf("schedd %s: %d idle jobs, %d live idleOrder slots, %d idlePos entries, %d of %d slots counted stale",
			s.name, idle, live, len(s.idlePos), s.idleStale, len(s.idleOrder))
	}
	return nil
}
