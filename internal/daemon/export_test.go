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
//     downstream may mutate it.
func CheckScheddIndex(s *Schedd) error {
	nonTerminal, idle := 0, 0
	for _, id := range s.order {
		j := s.jobs[id]
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
