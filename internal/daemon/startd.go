package daemon

import (
	"fmt"
	"time"

	"github.com/errscope/grid/internal/classad"
	"github.com/errscope/grid/internal/jvm"
	"github.com/errscope/grid/internal/obs"
	"github.com/errscope/grid/internal/sim"
	"github.com/errscope/grid/internal/vfs"
)

// MachineConfig describes one execution machine: its resources, the
// owner's policy, and — crucially — the owner's *assertions* about
// the Java installation, which may be wrong.
type MachineConfig struct {
	Name   string
	Memory int64 // MiB
	Arch   string
	OpSys  string
	// JVM is the actual Java installation on the machine.
	JVM jvm.Config
	// AdvertiseJava is the owner's assertion that Java works here.
	AdvertiseJava bool
	// SelfTest makes the startd verify the installation at startup
	// instead of trusting the assertion (the Autoconf lesson of
	// Section 5).  If the test fails, the startd simply declines to
	// advertise its Java capability.
	SelfTest bool
	// PeriodicSelfTest re-runs the verification before every ad
	// refresh, so an installation that degrades *after* startup is
	// also caught — the natural extension of the paper's startup
	// test.
	PeriodicSelfTest bool
	// OwnerRequirements is the owner's policy expression; empty
	// means accept any job.
	OwnerRequirements string
	// ScratchPrep, when non-nil, is applied to each starter's fresh
	// scratch file system before the job runs.  It models execution
	// sandboxes that are already degraded — a nearly full disk, a
	// read-only result path — and is the fault-injection point for
	// remote-resource-scope scratch failures.
	ScratchPrep func(fs *vfs.FileSystem)
}

// StartdState is the claim state of a machine.
type StartdState int

// Startd claim states.
const (
	StartdUnclaimed StartdState = iota
	StartdClaimed
	StartdRunning
	// StartdOwner: the machine's owner is using it; visiting jobs
	// are evicted and no ads are published — the opportunistic-cycles
	// discipline Condor was built on.
	StartdOwner
)

// Startd manages one execution machine: it enforces the owner's
// policy regarding when and how visiting jobs may be executed, and it
// creates a starter to oversee each job.
type Startd struct {
	bus    Runtime
	params Params
	cfg    MachineConfig
	tr     obs.Tracer

	machine *jvm.Machine
	// hasJava is what the startd actually advertises, after the
	// optional self-test.
	hasJava bool

	state      StartdState
	claimedBy  string
	claimedJob JobID
	starterSeq int
	starter    *Starter // the running job's starter, nil when none
	crashed    bool

	// claimGen invalidates lease timers from earlier claims; each
	// grant and each claim end bumps it.
	claimGen int
	// leaseExpiry is when the current claim's lease runs out; every
	// renewal from the shadow pushes it forward.
	leaseExpiry sim.Time

	// Preemption state (Params.Preemption).  incumbentRank is the Rank
	// the current claim's job scored on this machine — the bar a
	// challenger must strictly beat.  pendingClaim holds the winning
	// challenger's request while the incumbent vacates; vacating marks
	// the grace window in progress (the machine stops advertising, so
	// a second challenger cannot pile on).
	incumbentRank float64
	pendingClaim  *claimRequestMsg
	vacating      bool
	// vacateGraceOverride replaces vacateGrace on this machine, for
	// fault injection (preempt-grace-expiry).
	vacateGraceOverride time.Duration

	// Drain state (see drain.go).  A draining machine has stopped
	// matching and is vacating its resident within the grace window; a
	// drained machine sits idle outside the pool until Resume.
	draining bool
	drained  bool

	// adCache holds the machine ad per (claimed, hasJava) shape —
	// the only dynamic inputs of buildAd.  Re-advertising the same
	// immutable ad object lets the matchmaker skip re-reading it and
	// keeps the ad's rendering warm.
	adCache [4]*classad.Ad

	// Metrics.
	ClaimsGranted int
	ClaimsDenied  int
	JobsRun       int
	CPUDelivered  time.Duration
	SelfTestFail  bool
	Evictions     int
	// Preemptions counts claims transferred to a higher-Rank job.
	Preemptions int
	// LeasesExpired counts claims released because renewals stopped —
	// each one is an orphaned claim the lease protocol reclaimed.
	LeasesExpired int
	// Drains counts admin drain requests accepted by this machine.
	Drains int
}

// NewStartd creates, registers, and starts the startd for a machine.
// Its actor name is the machine name.
func NewStartd(bus Runtime, params Params, cfg MachineConfig) *Startd {
	if cfg.Arch == "" {
		cfg.Arch = "X86_64"
	}
	if cfg.OpSys == "" {
		cfg.OpSys = "LINUX"
	}
	if cfg.Memory == 0 {
		cfg.Memory = 1024
	}
	bus = affinity(bus, cfg.Name)
	s := &Startd{
		bus:     bus,
		params:  params,
		cfg:     cfg,
		tr:      params.tracer(),
		machine: jvm.New(cfg.JVM),
	}
	s.hasJava = cfg.AdvertiseJava
	if cfg.SelfTest && s.hasJava {
		if err := s.machine.SelfTest(); err != nil {
			// "If found lacking, then the startd simply declines
			// to advertise its Java capability."
			s.hasJava = false
			s.SelfTestFail = true
		}
	}
	bus.Register(cfg.Name, s)
	s.advertise()
	bus.Every(params.AdInterval, s.advertise)
	return s
}

// Name returns the startd's actor name.
func (s *Startd) Name() string { return s.cfg.Name }

// Machine returns the JVM installation, for tests.
func (s *Startd) Machine() *jvm.Machine { return s.machine }

// State returns the claim state, for tests.
func (s *Startd) State() StartdState { return s.state }

// buildAd returns the machine's ClassAd, cached per (claimed,
// hasJava) state.  The returned ad is shared and must not be mutated
// by callers.
func (s *Startd) buildAd() *classad.Ad {
	key := 0
	if s.state != StartdUnclaimed {
		key |= 1
	}
	if s.hasJava {
		key |= 2
	}
	if ad := s.adCache[key]; ad != nil {
		return ad
	}
	ad := classad.NewAd()
	ad.SetString("Machine", s.cfg.Name)
	ad.SetString("Arch", s.cfg.Arch)
	ad.SetString("OpSys", s.cfg.OpSys)
	ad.SetInt("Memory", s.cfg.Memory)
	ad.SetBool("HasJava", s.hasJava)
	ad.SetString("JavaVersion", s.machine.Config().Version)
	state := "Unclaimed"
	if s.state != StartdUnclaimed {
		state = "Claimed"
	}
	ad.SetString("State", state)
	if s.cfg.OwnerRequirements != "" {
		ad.MustSetExpr("Requirements", s.cfg.OwnerRequirements)
	}
	ad.Precompile()
	s.adCache[key] = ad
	return ad
}

// Evict reclaims the machine for its owner: any running job is told
// to stop (a Standard Universe job checkpoints first), the claim ends,
// and the machine stops advertising until OwnerLeft.
func (s *Startd) Evict() {
	if s.crashed || s.state == StartdOwner {
		return
	}
	if s.pendingClaim != nil {
		// A challenger was waiting out the incumbent's grace window;
		// the owner's return beats both jobs.
		s.bus.Send(s.cfg.Name, s.pendingClaim.Schedd, kindClaimReply,
			claimReplyMsg{Job: s.pendingClaim.Job, Granted: false,
				Reason: "owner reclaimed the machine"})
		s.pendingClaim = nil
	}
	s.vacating = false
	// The owner does not wait: a Standard Universe job checkpoints on
	// its way out.
	s.vacateResident(true, false)
	s.Evictions++
	s.tr.Count("startd.evictions", 1)
	if s.tr.Enabled() {
		s.tr.Emit(obs.Event{T: int64(s.bus.Now()), Comp: s.cfg.Name,
			Kind: obs.KindState, Job: int64(s.claimedJob), Code: "evicted",
			Detail: "owner reclaimed the machine"})
	}
	s.state = StartdOwner
	s.claimedBy = ""
	s.claimedJob = 0
	s.claimGen++
	if s.draining {
		// The owner's return emptied the machine mid-drain; the drain
		// completes now, and the machine stays out of the pool when
		// the owner leaves again.
		s.finishDrain()
	}
}

// OwnerLeft returns the machine to the pool after owner use.
func (s *Startd) OwnerLeft() {
	if s.crashed || s.state != StartdOwner {
		return
	}
	s.state = StartdUnclaimed
	s.advertise()
}

// Crash takes the machine down abruptly: the startd and any starter
// vanish from the network mid-protocol.  Nobody is told — the rest of
// the system must discover the silence through timeouts and ad
// expiry, exactly as with a real machine failure.
func (s *Startd) Crash() {
	if s.crashed {
		return
	}
	s.crashed = true
	s.tr.Count("startd.crashes", 1)
	if s.tr.Enabled() {
		s.tr.Emit(obs.Event{T: int64(s.bus.Now()), Comp: s.cfg.Name,
			Kind: obs.KindState, Job: int64(s.claimedJob), Code: "crashed"})
	}
	s.bus.Unregister(s.cfg.Name)
	// The starter dies with its machine: finished, it ships no further
	// checkpoint and no result, even once the machine restarts.
	if s.starter != nil {
		s.starter.finish()
		s.dropStarter()
	}
}

// Crashed reports whether the machine is down.
func (s *Startd) Crashed() bool { return s.crashed }

// Restart brings a crashed machine back as unclaimed; any previous
// claim is forgotten, as after a reboot.
func (s *Startd) Restart() {
	if !s.crashed {
		return
	}
	s.crashed = false
	s.state = StartdUnclaimed
	s.claimedBy = ""
	s.claimedJob = 0
	s.pendingClaim = nil
	s.vacating = false
	// A reboot forgets an administrative drain, like it forgets the
	// claim: drains are runtime state, not machine configuration.
	s.draining = false
	s.drained = false
	s.claimGen++
	if s.tr.Enabled() {
		s.tr.Emit(obs.Event{T: int64(s.bus.Now()), Comp: s.cfg.Name,
			Kind: obs.KindState, Code: "restarted"})
	}
	s.bus.Register(s.cfg.Name, s)
	s.advertise()
}

// SetJVMConfig replaces the machine's Java installation at runtime —
// the owner reconfigures it, or it silently rots.  The startd's view
// of its capability follows its self-test policy: with PeriodicSelfTest
// the change is discovered at the next ad refresh; with only the
// startup test, a degradation goes unnoticed and the machine becomes
// a black hole.
func (s *Startd) SetJVMConfig(cfg jvm.Config) {
	s.machine = jvm.New(cfg)
	if s.cfg.SelfTest && !s.cfg.PeriodicSelfTest {
		// Only the startup test was configured; the owner's change
		// is trusted blindly, as the paper's pool did.
		s.hasJava = s.cfg.AdvertiseJava
	}
}

// runSelfTest updates hasJava from a fresh probe of the installation.
func (s *Startd) runSelfTest() {
	if !s.cfg.AdvertiseJava {
		s.hasJava = false
		return
	}
	if err := s.machine.SelfTest(); err != nil {
		s.hasJava = false
		s.SelfTestFail = true
	} else {
		s.hasJava = true
	}
}

// advertise refreshes the machine ad at the matchmaker.  Unclaimed
// machines are always offered; a claimed machine is invisible to
// negotiation unless preemption is on, in which case it advertises a
// fresh ad carrying CurrentRank — the incumbent's Rank, the bar a
// challenger must strictly beat.  A machine mid-vacate stays silent:
// its claim is already spoken for.
func (s *Startd) advertise() {
	if s.crashed || s.draining || s.drained {
		// A draining or drained machine is out of the matchmaking
		// game entirely; its stale ad expires at the matchmaker.
		return
	}
	if s.state != StartdUnclaimed {
		if !s.params.Preemption || s.vacating ||
			(s.state != StartdClaimed && s.state != StartdRunning) {
			return
		}
		s.bus.Send(s.cfg.Name, s.params.matchmaker(), kindAdvertise, advertiseMsg{
			Name: s.cfg.Name,
			Ad:   s.buildClaimedAd(),
		})
		return
	}
	if s.cfg.PeriodicSelfTest {
		s.runSelfTest()
	}
	s.bus.Send(s.cfg.Name, s.params.matchmaker(), kindAdvertise, advertiseMsg{
		Name: s.cfg.Name,
		Ad:   s.buildAd(),
	})
}

// buildClaimedAd renders the preemption-mode ad of a claimed machine.
// Unlike buildAd it is not cached: CurrentRank varies per claim, and
// the matchmaker treats each fresh object as a content change anyway.
func (s *Startd) buildClaimedAd() *classad.Ad {
	ad := s.buildAd().Copy()
	ad.SetReal("CurrentRank", s.incumbentRank)
	ad.Precompile()
	return ad
}

// Receive implements sim.Actor.
func (s *Startd) Receive(msg sim.Message) {
	switch body := msg.Body.(type) {
	case claimRequestMsg:
		s.handleClaim(body)
	case activateMsg:
		s.handleActivate(body)
	case releaseClaimMsg:
		s.handleRelease(body)
	case starterDoneMsg:
		s.handleStarterDone(body)
	case leaseRenewMsg:
		s.handleLeaseRenew(body)
	}
}

// handleLeaseRenew extends the current claim's lease: the shadow is
// alive, so the submit side still stands behind the claim.
func (s *Startd) handleLeaseRenew(m leaseRenewMsg) {
	if m.Job != s.claimedJob {
		return
	}
	if s.state != StartdClaimed && s.state != StartdRunning {
		return
	}
	s.leaseExpiry = s.bus.Now().Add(leaseDuration)
}

// armLease starts the lease clock for a freshly granted claim.  The
// expiry check re-arms itself for as long as renewals keep pushing the
// deadline out; a bumped claimGen retires it.
func (s *Startd) armLease() {
	s.leaseExpiry = s.bus.Now().Add(leaseDuration)
	gen := s.claimGen
	s.bus.After(leaseDuration, func() { s.checkLease(gen) })
}

// checkLease fires at the lease deadline.  A renewed lease re-arms the
// check for the new deadline; an expired one means the submit side
// vanished — the starter (if any) learns its shadow is gone, the job's
// CPU is released, and the machine returns to the pool.
func (s *Startd) checkLease(gen int) {
	if s.crashed || gen != s.claimGen {
		return
	}
	now := s.bus.Now()
	if now < s.leaseExpiry {
		s.bus.After(s.leaseExpiry.Sub(now), func() { s.checkLease(gen) })
		return
	}
	s.LeasesExpired++
	s.tr.Count("startd.leases_expired", 1)
	if s.tr.Enabled() {
		s.tr.Emit(obs.Event{T: int64(now), Comp: s.cfg.Name,
			Kind: obs.KindState, Job: int64(s.claimedJob), Code: "lease-expired",
			Detail: "no renewal within the lease period; releasing the claim"})
	}
	if s.starter != nil {
		s.starter.shadowVanished()
	}
	s.teardown()
}

// handleClaim verifies the owner's policy and the machine's own
// requirements before granting.  Matched parties verify one another
// (Figure 1's claiming protocol); the matchmaker's notification alone
// proves nothing.
func (s *Startd) handleClaim(req claimRequestMsg) {
	deny := func(reason string) {
		s.ClaimsDenied++
		s.tr.Count("startd.claims_denied", 1)
		s.bus.Send(s.cfg.Name, req.Schedd, kindClaimReply,
			claimReplyMsg{Job: req.Job, Granted: false, Reason: reason})
	}
	if s.draining || s.drained {
		deny("machine is draining")
		return
	}
	if s.state != StartdUnclaimed {
		// Rank-based preemption: a claimed machine entertains a
		// challenger whose Rank strictly beats the incumbent's.  The
		// reply is deferred — the challenger is answered when the claim
		// actually transfers, after the incumbent's vacate window.
		if s.params.Preemption && s.pendingClaim == nil &&
			(s.state == StartdClaimed || s.state == StartdRunning) &&
			classad.Match(s.buildAd(), req.JobAd) &&
			classad.Rank(req.JobAd, s.buildAd()) > s.incumbentRank {
			r := req
			s.pendingClaim = &r
			if s.tr.Enabled() {
				s.tr.Emit(obs.Event{T: int64(s.bus.Now()), Comp: s.cfg.Name,
					Kind: obs.KindState, Job: int64(s.claimedJob), Code: "preempt-notice",
					Detail: fmt.Sprintf("job %d from %s outranks the incumbent; vacating",
						req.Job, req.Schedd)})
			}
			s.openGrace(s.completeVacate)
			return
		}
		deny("machine already claimed")
		return
	}
	if !classad.Match(s.buildAd(), req.JobAd) {
		deny("requirements not met at claim time")
		return
	}
	s.state = StartdClaimed
	s.claimedBy = req.Schedd
	s.claimedJob = req.Job
	s.incumbentRank = classad.Rank(req.JobAd, s.buildAd())
	s.claimGen++
	s.armLease()
	s.ClaimsGranted++
	s.tr.Count("startd.claims_granted", 1)
	s.bus.Send(s.cfg.Name, req.Schedd, kindClaimReply,
		claimReplyMsg{Job: req.Job, Granted: true})
}

// openGrace opens a vacate grace window over the resident claim
// (preemption or drain) and calls done when it closes.  Shipping the
// final checkpoint costs StartupOverhead of machine time (state
// transfer is the same data motion as job start); a grace window at
// least that long ends with a clean checkpointed handoff at the moment
// the checkpoint is away, while a shorter one expires first and the
// resident forfeits everything since its last periodic checkpoint.
func (s *Startd) openGrace(done func(gen int, clean bool)) {
	s.vacating = true
	grace := vacateGrace
	if s.vacateGraceOverride > 0 {
		grace = s.vacateGraceOverride
	}
	ship := s.params.StartupOverhead
	clean := grace >= ship
	delay := grace
	if clean {
		delay = ship
	}
	gen := s.claimGen
	s.bus.After(delay, func() { done(gen, clean) })
}

// vacateResident ends the resident claim's attempt.  A running starter
// is stopped synchronously — the startd signals its own child, no
// network is involved.  A claim granted before any starter runs has
// no child to report through, so the submit side is told directly:
// without that notice the shadow would sit on its activation timeout
// while the claim's lease ran out, and the job would requeue hours
// late for a vacate the machine knew about instantly.
func (s *Startd) vacateResident(clean, preempted bool) {
	if s.starter != nil {
		s.starter.stop(clean, preempted)
		s.dropStarter()
	} else if s.claimedJob != 0 && s.claimedBy != "" {
		s.bus.Send(s.cfg.Name, s.claimedBy, kindClaimVacated, claimVacatedMsg{
			Job:       s.claimedJob,
			Machine:   s.cfg.Name,
			Preempted: preempted,
		})
	}
}

// dropStarter takes the starter, if any, off the bus and forgets it.
func (s *Startd) dropStarter() {
	if s.starter != nil {
		s.bus.Unregister(s.starter.name)
		s.starter = nil
	}
}

// completeVacate ends the incumbent's attempt at the close of the
// grace window and hands the claim to the waiting challenger.  The
// claimGen fence retires the timer if the claim already ended some
// other way (natural completion, eviction, lease expiry) — teardown
// transfers the pending claim itself in those cases.
func (s *Startd) completeVacate(gen int, clean bool) {
	if s.crashed || gen != s.claimGen || s.pendingClaim == nil {
		return
	}
	s.Preemptions++
	s.tr.Count("startd.preemptions", 1)
	if s.tr.Enabled() {
		s.tr.Emit(obs.Event{T: int64(s.bus.Now()), Comp: s.cfg.Name,
			Kind: obs.KindState, Job: int64(s.claimedJob), Code: "preempted",
			Detail: fmt.Sprintf("claim transferred to job %d (clean checkpoint: %v)",
				s.pendingClaim.Job, clean)})
	}
	s.vacateResident(clean, true)
	s.transferClaim()
}

// transferClaim seats the pending challenger on the machine: the
// claim protocol resumes exactly where a fresh grant would, with the
// deferred claim reply finally sent.
func (s *Startd) transferClaim() {
	req := *s.pendingClaim
	s.pendingClaim = nil
	s.vacating = false
	s.state = StartdClaimed
	s.claimedBy = req.Schedd
	s.claimedJob = req.Job
	s.claimGen++
	s.incumbentRank = classad.Rank(req.JobAd, s.buildAd())
	s.armLease()
	s.ClaimsGranted++
	s.tr.Count("startd.claims_granted", 1)
	s.bus.Send(s.cfg.Name, req.Schedd, kindClaimReply,
		claimReplyMsg{Job: req.Job, Granted: true})
}

// SetVacateGrace overrides the pool-wide vacate grace window on this
// machine, for fault injection (preempt-grace-expiry).
func (s *Startd) SetVacateGrace(d time.Duration) { s.vacateGraceOverride = d }

// handleActivate spawns a starter for the claimed job.
func (s *Startd) handleActivate(act activateMsg) {
	if s.state != StartdClaimed || act.Job != s.claimedJob {
		// A stale activation: the claim is gone.  Ignore; the
		// shadow's timeout policy covers the schedd.
		return
	}
	s.state = StartdRunning
	s.starterSeq++
	name := fmt.Sprintf("starter:%s:%d", s.cfg.Name, s.starterSeq)
	st := newStarter(s.bus, s.params, name, s, act.Job, act.Shadow)
	s.starter = st
	s.bus.Register(name, st)
	st.begin()
}

// handleRelease returns the machine to service.
func (s *Startd) handleRelease(rel releaseClaimMsg) {
	if rel.Job != s.claimedJob {
		return
	}
	s.teardown()
}

// starterDoneMsg is the starter's private completion notice.
type starterDoneMsg struct {
	Job JobID
	CPU time.Duration
	Ran bool
}

func (s *Startd) handleStarterDone(done starterDoneMsg) {
	if done.Job != s.claimedJob {
		return
	}
	if done.Ran {
		s.JobsRun++
		s.CPUDelivered += done.CPU
	}
	s.teardown()
}

func (s *Startd) teardown() {
	s.dropStarter()
	s.state = StartdUnclaimed
	s.claimedBy = ""
	s.claimedJob = 0
	s.claimGen++
	if s.pendingClaim != nil {
		// The incumbent left on its own during the grace window; the
		// challenger takes the claim without waiting out the vacate.
		s.transferClaim()
		return
	}
	s.vacating = false
	if s.draining {
		// The resident left (naturally or vacated) while the machine
		// was draining: the drain completes instead of re-advertising.
		s.finishDrain()
		return
	}
	// Re-advertise immediately: an idle machine returns to the pool
	// without waiting for the next ad interval.  (For a black-hole
	// machine this is exactly what makes it so hungry.)
	s.advertise()
}
