package daemon

import (
	"fmt"

	"github.com/errscope/grid/internal/obs"
	"github.com/errscope/grid/internal/scope"
)

// Administrative drain: the ops-plane verb that takes a machine out
// of service without losing its resident's work.
//
// The state machine is deliberately small.  Drain stops matching
// immediately (no ads, claims denied) and opens the same vacate grace
// window preemption uses: a window at least as long as the checkpoint
// ship time ends with a clean checkpointed handoff, a shorter one
// expires first and the resident forfeits progress back to its last
// periodic checkpoint (the drain-grace-expiry fault class).  When the
// resident is gone — vacated, finished naturally, or evicted by the
// owner — the machine parks as drained until Resume.
//
// Failure scope: Drain on a crashed machine escapes to the caller as
// a remote-resource error naming the machine; it never touches any
// other daemon.  The vacated job's attempt ends Evicted (not
// Preempted — no challenger took the claim) and requeues, scoped to
// the claim exactly like an owner eviction.

// Drain takes the machine out of matchmaking and vacates any resident
// job within the vacate grace window, then marks the machine drained.
// It is idempotent while a drain is in progress or complete.
func (s *Startd) Drain() error {
	if s.crashed {
		e := scope.New(scope.ScopeRemoteResource, "MachineDown",
			"cannot drain %s: the machine is down", s.cfg.Name)
		return e.WithOrigin(s.cfg.Name)
	}
	if s.draining || s.drained {
		return nil
	}
	s.draining = true
	s.Drains++
	s.tr.Count("startd.drains", 1)
	if s.tr.Enabled() {
		s.tr.Emit(obs.Event{T: int64(s.bus.Now()), Comp: s.cfg.Name,
			Kind: obs.KindState, Job: int64(s.claimedJob), Code: "draining",
			Detail: "admin drain: matching stopped; vacating resident"})
	}
	if s.pendingClaim != nil {
		// A challenger was waiting out a preemption grace window; the
		// drain turns it away — nothing new lands on this machine.
		s.bus.Send(s.cfg.Name, s.pendingClaim.Schedd, kindClaimReply,
			claimReplyMsg{Job: s.pendingClaim.Job, Granted: false,
				Reason: "machine is draining"})
		s.pendingClaim = nil
	}
	switch s.state {
	case StartdClaimed, StartdRunning:
		s.openGrace(s.completeDrainVacate)
	default:
		// Unclaimed (nothing resident) or owner-held (the owner's
		// processes are not ours to vacate): drained immediately.
		s.finishDrain()
	}
	return nil
}

// Resume returns a draining or drained machine to service: matching
// restarts and, if idle, the machine re-advertises immediately.
func (s *Startd) Resume() {
	if s.crashed || (!s.draining && !s.drained) {
		return
	}
	s.draining = false
	s.drained = false
	// Retire any in-flight drain-vacate timer: the claim (if one is
	// still seated) keeps running as if the drain never happened.
	s.claimGen++
	if s.state == StartdClaimed || s.state == StartdRunning {
		s.vacating = false
		s.armLease()
	}
	if s.tr.Enabled() {
		s.tr.Emit(obs.Event{T: int64(s.bus.Now()), Comp: s.cfg.Name,
			Kind: obs.KindState, Code: "resumed",
			Detail: "admin resume: machine returns to the pool"})
	}
	s.advertise()
}

// completeDrainVacate ends the resident's attempt at the close of the
// drain grace window.  The claimGen fence retires the timer if the
// claim already ended some other way (natural completion, eviction,
// lease expiry, Resume) — teardown finishes the drain in those cases.
func (s *Startd) completeDrainVacate(gen int, clean bool) {
	if s.crashed || gen != s.claimGen || !s.draining {
		return
	}
	s.Evictions++
	s.tr.Count("startd.evictions", 1)
	if s.tr.Enabled() {
		s.tr.Emit(obs.Event{T: int64(s.bus.Now()), Comp: s.cfg.Name,
			Kind: obs.KindState, Job: int64(s.claimedJob), Code: "evicted",
			Detail: fmt.Sprintf("drained (clean checkpoint: %v)", clean)})
	}
	// No challenger takes the claim, so the attempt ends Evicted, not
	// Preempted.
	s.vacateResident(clean, false)
	s.state = StartdUnclaimed
	s.claimedBy = ""
	s.claimedJob = 0
	s.claimGen++
	s.vacating = false
	s.finishDrain()
}

// finishDrain parks the machine in the drained state.
func (s *Startd) finishDrain() {
	s.draining = false
	s.drained = true
	if s.tr.Enabled() {
		s.tr.Emit(obs.Event{T: int64(s.bus.Now()), Comp: s.cfg.Name,
			Kind: obs.KindState, Code: "drained",
			Detail: "machine idle and out of the pool until resume"})
	}
}

// Vacating reports whether the machine is inside a vacate grace
// window (preemption or drain).
func (s *Startd) Vacating() bool { return s.vacating }

// Draining reports whether an admin drain is in progress.
func (s *Startd) Draining() bool { return s.draining }

// Drained reports whether the machine is drained and parked.
func (s *Startd) Drained() bool { return s.drained }
