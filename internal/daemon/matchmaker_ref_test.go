package daemon

// The reference negotiation cycle: the matchmaker's cycle as it ran
// with the fast path switched off, kept verbatim as a test oracle in
// the style of replay_ref_test.go.  It reads and writes the same
// Matchmaker state as negotiate — the expiry scans, the owner queues,
// the fair-share order, the hierarchical partition, the counters and
// the notifications — but finds each job's machine by a full scan of
// the name-sorted machine list, evaluating Requirements and Rank pair
// by pair with no auto-cluster.  Both cycles decide every pair with
// classad.Match and classad.Rank, so they differ only by
// auto-clustering; FuzzEval (internal/classad) is the evaluator's own
// oracle.
// The fast path must change no decision against it:
// TestDeterminismFastPathMatchesReference (pool traces) and
// FuzzNegotiate (cycle by cycle) hold the two byte-equal.

import (
	"slices"
	"strings"

	"github.com/errscope/grid/internal/classad"
)

// refNegotiate runs one negotiation cycle through the reference scan.
func (m *Matchmaker) refNegotiate() {
	m.Cycles++
	m.tr.Count("matchmaker.cycles", 1)
	m.expireMachines()
	m.expireJobs()
	m.compactJobQueues()

	owners := append(m.ownerScratch[:0], m.ownerNames...)
	slices.SortFunc(owners, func(a, b string) int {
		if m.usage[a] != m.usage[b] {
			return m.usage[a] - m.usage[b]
		}
		return strings.Compare(a, b)
	})
	m.ownerScratch = owners

	jobs := m.jobScratch[:0]
	for round := 0; len(jobs) < m.queuedJobs(); round++ {
		for _, o := range owners {
			if q := m.ownerQueues[o]; round < len(q) {
				jobs = append(jobs, q[round])
			}
		}
	}
	m.jobScratch = jobs

	if m.foreignJobs > 0 {
		foreign := m.foreignScratch[:0]
		local := jobs[:0]
		for _, j := range jobs {
			if j.foreign {
				foreign = append(foreign, j)
			} else {
				local = append(local, j)
			}
		}
		m.foreignScratch = foreign
		jobs = append(local, foreign...)
	}

	for _, j := range jobs {
		best := m.refFindBest(j)
		if best == nil {
			if !j.noMatchSent() && !m.refAnyCompatible(j) {
				j.markNoMatch()
				m.NoMatches++
				m.tr.Count("matchmaker.no_matches", 1)
				m.bus.Send(m.name, j.schedd, kindNoMatch,
					noMatchMsg{Jobs: []JobID{j.job}})
			}
			continue
		}
		best.matched = true
		m.MatchesMade++
		if j.foreign {
			m.ForeignMatches++
		}
		m.tr.Count("matchmaker.matches", 1)
		m.usage[j.owner]++
		m.dropJob(j)
		m.bus.Send(m.name, j.schedd, kindMatchNotify, matchNotifyMsg{
			Job:       j.job,
			Machine:   best.name,
			MachineAd: best.ad,
		})
	}
	if m.tr.Enabled() {
		m.tr.Observe("matchmaker.cycle_jobs", int64(len(jobs)))
	}
}

// refFindBest is the full scan: the first machine in name order that
// is present, not yet handed out this cycle, matches both ways and
// is preemptable at the job's Rank, attaining the maximum Rank.
func (m *Matchmaker) refFindBest(j *jobEntry) *machineEntry {
	var best *machineEntry
	bestRank := 0.0
	for _, entry := range m.machineList {
		if entry.absent || entry.matched || !classad.Match(j.ad, entry.ad) {
			continue
		}
		r := classad.Rank(j.ad, entry.ad)
		if !m.preemptable(entry, r) {
			continue
		}
		if best == nil || r > bestRank {
			best = entry
			bestRank = r
		}
	}
	return best
}

// refAnyCompatible reports whether any advertised machine — including
// ones provisionally matched this cycle — satisfies the job.
func (m *Matchmaker) refAnyCompatible(j *jobEntry) bool {
	for _, e := range m.machineList {
		if !e.absent && classad.Match(j.ad, e.ad) &&
			m.preemptable(e, classad.Rank(j.ad, e.ad)) {
			return true
		}
	}
	return false
}
