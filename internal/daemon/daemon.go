// Package daemon implements the Condor kernel of Figure 1 as actors
// on a deterministic discrete-event simulation: the matchmaker that
// collects ClassAds and notifies compatible parties, the schedd that
// owns the persistent job queue and the final disposition policy, the
// startd that enforces the machine owner's policy, and the per-job
// shadow and starter that cooperate to run one job.
//
// Every inter-daemon failure travels as a scoped error, and each
// daemon handles exactly the scopes it manages (Figure 3):
//
//	starter  — virtual-machine and remote-resource scope
//	shadow   — local-resource scope
//	schedd   — job scope, and program scope on behalf of the user
//
// The schedd's last line of defense is scope.Dispose: program scope
// completes, job scope is unexecutable, anything in between is logged
// and requeued for a new site.
package daemon

import (
	"time"

	"github.com/errscope/grid/internal/obs"
	"github.com/errscope/grid/internal/scope"
)

// Mode selects the error-propagation discipline of the whole pool.
type Mode int

const (
	// ModeScoped is the corrected system of Section 4: the wrapper
	// writes result files, the I/O library escapes environmental
	// errors, and the schedd disposes by scope.
	ModeScoped Mode = iota
	// ModeNaive is the original system of Section 2.3: the starter
	// relies on the JVM exit code, the I/O library converts
	// everything into generic IOExceptions, and every termination
	// returns to the user as a program result.
	ModeNaive
)

// String returns the mode name.
func (m Mode) String() string {
	if m == ModeNaive {
		return "naive"
	}
	return "scoped"
}

// MountPolicyKind selects how the shadow treats an unavailable
// submit-side file system (Section 5's hard/soft mount discussion).
type MountPolicyKind int

const (
	// MountSoft retries for SoftTimeout and then exposes the error.
	MountSoft MountPolicyKind = iota
	// MountHard retries forever, hiding the error and consuming the
	// claim — NFS "hard mount" behaviour.
	MountHard
	// MountPerJob takes the patience from the job ad's
	// OutageTolerance attribute (in seconds), falling back to
	// SoftTimeout: a single program chooses its own failure
	// criteria, the option NFS never offered.
	MountPerJob
)

// String returns the policy name.
func (k MountPolicyKind) String() string {
	switch k {
	case MountHard:
		return "hard"
	case MountPerJob:
		return "per-job"
	default:
		return "soft"
	}
}

// MountPolicy configures the shadow's response to local-resource
// outages.
type MountPolicy struct {
	Kind        MountPolicyKind
	SoftTimeout time.Duration
	// RetryInterval is the delay before the first fetch retry.  Each
	// further retry doubles the delay (capped), so a persistent
	// outage costs logarithmically many probes instead of hammering
	// the dead file server at a constant rate.
	RetryInterval time.Duration
	// MaxRetryInterval caps the exponential backoff; 0 selects
	// 64 × RetryInterval.
	MaxRetryInterval time.Duration
}

// DefaultMountPolicy is a soft mount with a five-minute patience.
func DefaultMountPolicy() MountPolicy {
	return MountPolicy{Kind: MountSoft, SoftTimeout: 5 * time.Minute, RetryInterval: 30 * time.Second}
}

// Params are the pool-wide protocol parameters.
type Params struct {
	// Mode is the error-propagation discipline.
	Mode Mode
	// NegotiationInterval is the matchmaker's cycle period.
	NegotiationInterval time.Duration
	// AdInterval is how often daemons refresh their ads.
	AdInterval time.Duration
	// StartupOverhead is the per-attempt cost of claiming, transfer,
	// and JVM start, charged before any program CPU.
	StartupOverhead time.Duration
	// MaxAttempts bounds requeues per job; a job that exhausts its
	// attempts is held with its last error.
	MaxAttempts int
	// Mount is the shadow's outage policy.
	Mount MountPolicy
	// ChronicFailureThreshold, when positive, enables the schedd's
	// complementary fix from Section 5: after this many consecutive
	// failures at one machine, the schedd declines further matches
	// to it.
	ChronicFailureThreshold int
	// ChronicRelaxAfter bounds how long chronic-failure avoidance
	// may starve a job: when a job has been idle at least this long
	// and the matchmaker reports *zero* compatible machines (not
	// merely none free) while the avoidance constraint is in force,
	// the schedd advertises the job without it.  Avoidance is a
	// preference, not a death sentence — when every machine in the
	// pool looks chronic, the job must still run (and, failing,
	// exhaust MaxAttempts and be held) rather than sit idle forever.
	// Zero disables relaxation.
	ChronicRelaxAfter time.Duration
	// ClaimTimeout bounds how long the schedd waits for a claim
	// reply before treating the silence as an error wider than the
	// network (Section 5: time distinguishes a refused connection
	// from a dead service).
	ClaimTimeout time.Duration
	// ResultTimeout bounds how long a shadow waits for a result
	// after shipping the job.  A starter silent past this point has
	// vanished: the network-scope silence is widened to
	// remote-resource scope and the job is requeued.
	ResultTimeout time.Duration
	// MachineAdLifetime is how long the matchmaker trusts a machine
	// ad without refresh; a crashed machine disappears from
	// matchmaking when its last ad expires.
	MachineAdLifetime time.Duration
	// JobAdLifetime is how long the matchmaker trusts a job ad
	// without refresh.  Live schedds refresh idle jobs every
	// AdInterval, so only a dead schedd's requests age out — the
	// matchmaker-side half of submit-side crash recovery.  Zero
	// selects the machine-ad default.
	JobAdLifetime time.Duration
	// LeaseInterval is how often a shadow renews the claim lease on
	// its job's execution machine.  Zero disables renewal (leases
	// then expire unconditionally if LeaseDuration is set).
	LeaseInterval time.Duration
	// LeaseDuration is how long a startd honours a claim without a
	// renewal before concluding the submit side has vanished: the
	// starter reports ShadowVanished, the job's CPU is released, and
	// the machine returns to the pool.  Zero disables claim leases —
	// an orphaned starter then runs to completion, the failure mode
	// this protocol exists to prevent.
	LeaseDuration time.Duration
	// RequeueBackoff spaces retries of a requeued job.
	RequeueBackoff time.Duration
	// MaxFetchRetries bounds the shadow's fetch retries within one
	// attempt.  A submit-side outage that survives this many probes
	// is no longer a transient: the shadow escalates and the schedd
	// holds the job with the escalated error instead of spinning
	// forever.  0 disables the bound (retry forever, the historic
	// hard-mount behaviour).
	MaxFetchRetries int
	// CheckpointInterval is how often a Standard Universe starter
	// ships a checkpoint to the shadow; 0 disables checkpointing.
	CheckpointInterval time.Duration
	// CheckpointOverhead is the wall-clock cost the execution machine
	// pays per checkpoint taken — time the program does not progress
	// while its state is written out.  Zero (the default) makes
	// checkpoints free, the historic behaviour; a positive overhead
	// creates the Garba tradeoff the checkpoint-sweep experiment
	// measures: short intervals waste time checkpointing, long ones
	// waste rework on eviction.
	CheckpointOverhead time.Duration
	// Preemption enables Rank-based preemption: the matchmaker may
	// match a job to a *claimed* machine when the newcomer's Rank
	// strictly beats the incumbent's, and the startd then vacates the
	// incumbent (shipping a final checkpoint within
	// VacateGracePeriod) and transfers the claim.  Off by default —
	// claimed machines never advertise and are invisible to
	// negotiation, the historic behaviour.
	Preemption bool
	// VacateGracePeriod is how long a preempted claim's incumbent has
	// to ship a final checkpoint before the claim transfers anyway.
	// When the grace window is too short for the checkpoint to ship,
	// the incumbent loses everything since its last periodic
	// checkpoint — the preempt-grace-expiry fault class.  Zero
	// selects 30s.
	VacateGracePeriod time.Duration
	// Matchmaker names this pool's negotiator.  Empty selects the
	// historic single-pool name ("matchmaker"); a federation gives
	// each pool's negotiator a distinct name so N pools can share one
	// bus.
	Matchmaker string
	// Flockd names this pool's flock coordinator, the daemon a
	// starved schedd asks for a peer pool.  Empty disables flocking
	// even when FlockTo is set.
	Flockd string
	// FlockTo lists peer-pool negotiators in flocking order: a job
	// that starves at level k is offered to the first live negotiator
	// at index >= k.  Empty disables flocking.
	FlockTo []string
	// FlockAfter is how long a job must starve — idle with a standing
	// no-match — before the schedd asks the flock coordinator for a
	// peer pool.  Zero disables flocking.
	FlockAfter time.Duration
	// FlockPingInterval is how often the flock coordinator probes
	// peer negotiators for liveness; zero selects AdInterval.  A peer
	// silent for three intervals is considered dead and is skipped
	// when granting.
	FlockPingInterval time.Duration
	// Trace receives structured error-propagation events and metrics
	// from every daemon (see package obs).  Nil disables tracing at
	// zero allocation cost on the hot paths.
	Trace obs.Tracer
}

// tracer resolves the configured tracer, substituting the no-op.
func (p Params) tracer() obs.Tracer { return obs.Or(p.Trace) }

// matchmaker resolves the home negotiator's actor name.
func (p Params) matchmaker() string {
	if p.Matchmaker != "" {
		return p.Matchmaker
	}
	return MatchmakerName
}

// flocking reports whether the flock state machine is configured at
// all; with it off the schedd sends no flock traffic and arms no
// flock timers, so single-pool runs are byte-identical to history.
func (p Params) flocking() bool {
	return p.Flockd != "" && p.FlockAfter > 0 && len(p.FlockTo) > 0
}

// flockPingInterval resolves the coordinator's probe period.
func (p Params) flockPingInterval() time.Duration {
	if p.FlockPingInterval > 0 {
		return p.FlockPingInterval
	}
	return p.AdInterval
}

// vacateGrace resolves the preemption grace window.
func (p Params) vacateGrace() time.Duration {
	if p.VacateGracePeriod > 0 {
		return p.VacateGracePeriod
	}
	return 30 * time.Second
}

// DefaultParams returns the parameters used throughout the paper's
// experiments.
func DefaultParams() Params {
	return Params{
		Mode:                ModeScoped,
		NegotiationInterval: 60 * time.Second,
		AdInterval:          60 * time.Second,
		StartupOverhead:     2 * time.Second,
		MaxAttempts:         20,
		Mount:               DefaultMountPolicy(),
		ChronicRelaxAfter:   2 * time.Hour,
		ClaimTimeout:        2 * time.Minute,
		ResultTimeout:       12 * time.Hour,
		MachineAdLifetime:   150 * time.Second,
		JobAdLifetime:       150 * time.Second,
		LeaseInterval:       2 * time.Minute,
		LeaseDuration:       5 * time.Minute,
		RequeueBackoff:      10 * time.Second,
		CheckpointInterval:  10 * time.Minute,
		// Generous enough that no sane outage hits it (with backoff,
		// a thousand probes spans weeks of virtual time), but finite:
		// "forever" is never the default.
		MaxFetchRetries: 1000,
	}
}

// Well-known actor names.
const (
	MatchmakerName = "matchmaker"
)

// holdErr builds the error recorded when a job exhausts MaxAttempts.
func holdErr(last error) error {
	return scope.Escape(scope.ScopePool, "AttemptsExhausted", last)
}

// errorEvent builds the trace event for a scoped error observed at a
// component.  Only call it behind Tracer.Enabled: the detail string
// allocates.
func errorEvent(t int64, comp string, job JobID, err error) obs.Event {
	ev := obs.Event{T: t, Comp: comp, Kind: obs.KindError, Job: int64(job)}
	if se, ok := scope.AsError(err); ok {
		ev.Code = se.Code
		ev.Scope = se.Scope.String()
		ev.EKind = se.Kind.String()
		ev.Detail = se.Error()
	} else if err != nil {
		ev.Code = "unscoped"
		ev.Detail = err.Error()
	}
	return ev
}
