package daemon

import (
	"time"

	"github.com/errscope/grid/internal/classad"
	"github.com/errscope/grid/internal/jvm"
	"github.com/errscope/grid/internal/scope"
)

// Message kinds exchanged on the bus.  Each kind's body type is the
// struct of the same base name; advertise also carries a schedd's
// *jobAdsMsg.
const (
	kindAdvertise    = "advertise"     // startd/schedd -> matchmaker
	kindMatchNotify  = "match-notify"  // matchmaker -> schedd
	kindNoMatch      = "no-match"      // matchmaker -> schedd (zero compatible ads)
	kindAdResync     = "ad-resync"     // matchmaker -> schedd (a job-ad message went missing)
	kindClaimRequest = "claim-request" // schedd -> startd
	kindClaimReply   = "claim-reply"   // startd -> schedd
	kindActivate     = "activate"      // schedd -> startd (names the shadow)
	kindFetchJob     = "fetch-job"     // starter -> shadow
	kindJobDetails   = "job-details"   // shadow -> starter
	kindFetchAbort   = "fetch-abort"   // shadow -> starter (shadow gave up)
	kindJobResult    = "job-result"    // starter -> shadow
	kindJobFinal     = "job-final"     // shadow -> schedd
	kindReleaseClaim = "release-claim" // schedd/shadow -> startd
	kindCheckpoint   = "checkpoint"    // starter -> shadow
	kindCkptCommit   = "ckpt-commit"   // shadow -> schedd (journal the checkpoint)
	kindJobEvicted   = "job-evicted"   // starter -> shadow
	kindClaimVacated = "claim-vacated" // startd -> schedd (claim gone before a starter ran)
	kindLeaseRenew   = "lease-renew"   // shadow -> startd (claim keep-alive)
	kindFlockPing    = "flock-ping"    // flockd -> peer matchmaker (liveness probe)
	kindFlockPong    = "flock-pong"    // peer matchmaker -> flockd
	kindFlockQuery   = "flock-query"   // schedd -> flockd (starved job wants a peer)
	kindFlockReply   = "flock-reply"   // flockd -> schedd (encoded grant or deny)
)

// advertiseMsg refreshes a machine ad at the matchmaker.
type advertiseMsg struct {
	// Name is the machine's (its startd's) name.
	Name string
	Ad   *classad.Ad
}

// jobAdsMsg is one sequenced message of a schedd's job advertisements
// to one negotiator: a heartbeat (Beat), one advertisement or
// withdrawal, or a full message.  Each channel — schedd, negotiator —
// numbers its messages from 1 in every Incarnation, a schedd process
// life, so the negotiator finds a missed one by the gap, and ignores a
// duplicate or stale one by its number.  A heartbeat renews every
// request the negotiator holds from the schedd and carries only the
// entries that changed without a message of their own; a Full message
// carries every idle job the negotiator serves, and the negotiator
// holds nothing more from the schedd than it.  Entries apply in order.
// The schedd sends a pointer into a slab, never reused
// (Schedd.sendAds).
type jobAdsMsg struct {
	Schedd      string
	Incarnation uint64
	Seq         uint64
	Beat, Full  bool
	Ads         []jobAd
}

// jobAd is one job's entry in a jobAdsMsg.
type jobAd struct {
	Job JobID
	// Ad is the effective ad; nil withdraws the request.
	Ad *classad.Ad
	// Flocked marks a job advertised to a peer pool's negotiator:
	// hierarchical negotiation serves it after the pool's own jobs.
	Flocked bool
}

// matchNotifyMsg tells a schedd about a compatible machine.
type matchNotifyMsg struct {
	Job       JobID
	Machine   string // startd actor name
	MachineAd *classad.Ad
}

// noMatchMsg tells a schedd that jobs it advertised are compatible
// with no machine currently known to the matchmaker — not merely
// outbid this cycle, but unmatchable.  It carries one run of the
// cycle's no-match notices (see noticeRun), in cycle order.  The
// schedd uses these to detect a job starved by its own avoidance
// constraint.
type noMatchMsg struct {
	Jobs []JobID
}

// adResyncMsg asks a schedd for a full job-ad message: the negotiator
// found a gap in the schedd's sequence (see jobAdsMsg).
type adResyncMsg struct{}

// claimRequestMsg asks a startd for the claim on its machine.
type claimRequestMsg struct {
	Job    JobID
	Schedd string
	JobAd  *classad.Ad
}

// claimReplyMsg grants or denies a claim.
type claimReplyMsg struct {
	Job     JobID
	Granted bool
	Reason  string
}

// activateMsg starts execution under an existing claim; the startd
// spawns a starter that will contact the named shadow.
type activateMsg struct {
	Job    JobID
	Shadow string
}

// fetchJobMsg is the starter asking its shadow for the job details.
type fetchJobMsg struct {
	Starter string
}

// jobDetailsMsg carries the program to the execution site.
type jobDetailsMsg struct {
	Job JobID
	// Universe selects the execution environment on the machine.
	Universe string
	// ResumeCPU is the checkpointed progress a Standard Universe job
	// restarts from.
	ResumeCPU time.Duration
	Program   *jvm.Program
	// IO is the I/O service the job will use, built by the shadow
	// over the submit-side file system.
	IO jvm.FileOps
	// Generic records that IO is the flawed generic-IOException
	// library (ModeNaive).
	Generic bool
}

// fetchAbortMsg tells the starter the shadow could not provide the
// job (the shadow already informed the schedd).
type fetchAbortMsg struct{ Job JobID }

// jobResultMsg reports an attempt's outcome to the shadow.
type jobResultMsg struct {
	Job JobID
	// Reported is what this mode's starter propagates.
	Reported scope.Result
	// True is the wrapper's ground-truth classification.
	True scope.Result
	CPU  time.Duration
}

// jobFinalMsg is the shadow's report to the schedd for one attempt.
type jobFinalMsg struct {
	Job     JobID
	Machine string
	// Err is nil for a program result; otherwise the scoped error
	// the schedd must dispose of.
	Reported scope.Result
	True     scope.Result
	CPU      time.Duration
	// FetchError, when non-nil, means the attempt never ran.
	FetchError error
	// Hold asks the schedd to park the job with FetchError instead
	// of requeueing: the shadow exhausted its fetch-retry budget, so
	// another site would only repeat the same submit-side failure.
	Hold bool
	// LostContact, when non-nil, means the execution site went
	// silent mid-attempt; the error carries the widened scope.
	LostContact error
	// Evicted marks an owner-reclaimed machine: requeue with no
	// blame attached to anyone.
	Evicted bool
	// Preempted qualifies Evicted: the claim was not reclaimed by
	// the owner but transferred to a higher-Rank job.
	Preempted bool
	// CheckpointCPU is the progress preserved across the failure or
	// eviction, to resume from at the next site.
	CheckpointCPU time.Duration
}

// releaseClaimMsg returns a machine to the unclaimed state.
type releaseClaimMsg struct{ Job JobID }

// leaseRenewMsg is the shadow's periodic keep-alive for its job's
// claim: the startd extends the lease on receipt.  When renewals stop
// — the schedd and its shadows crashed — the lease expires and the
// execute side discovers the submit side is gone.  Like periodic ads,
// lease traffic is deliberately not job-tagged: it is liveness plumbing,
// not error propagation, and tagging it would drown traces in
// heartbeats.
type leaseRenewMsg struct{ Job JobID }

// checkpointMsg ships a Standard Universe job's progress to the
// shadow, where it survives the execution machine.  The progress
// itself travels as the checkpoint-codec text payload (see
// ckptmsg.go): the checkpoint crosses the pool boundary, so a payload
// damaged in transit is a first-class fault the shadow must scope —
// reject the record, keep the previous checkpoint — not a programming
// error.
type checkpointMsg struct {
	Job     JobID
	Payload string
}

// ckptCommitMsg asks the schedd to make a validated checkpoint
// durable: journal it through the WAL so a restart — even on a
// different machine, even after a schedd crash — resumes from it.
type ckptCommitMsg struct {
	Job JobID
	CPU time.Duration
}

// jobEvictedMsg reports an eviction to the shadow, carrying the
// freshest checkpoint (zero for non-checkpointing universes).
type jobEvictedMsg struct {
	Job           JobID
	CheckpointCPU time.Duration
	// Preempted distinguishes a higher-Rank claim transfer from an
	// owner reclaim.
	Preempted bool
}

// claimVacatedMsg tells the schedd that a claim it held disappeared
// before (or without) a starter running — an eviction or preemption
// caught the machine in the Claimed state, so there is no starter to
// report through.  The schedd routes it to the job's shadow.
type claimVacatedMsg struct {
	Job           JobID
	Machine       string
	CheckpointCPU time.Duration
	Preempted     bool
}

// flockPingMsg is the flock coordinator's periodic liveness probe to
// a peer negotiator; like lease renewals it is liveness plumbing and
// deliberately not job-tagged.
type flockPingMsg struct {
	From string
	Seq  int64
}

// flockPongMsg is a negotiator's answer to a flock ping.
type flockPongMsg struct {
	From string
	Seq  int64
}

// flockQueryMsg asks the flock coordinator for a peer pool willing to
// negotiate for a starved job: "find me a live negotiator at flocking
// level >= Level".
type flockQueryMsg struct {
	Job    JobID
	Schedd string
	Level  int
}

// flockReplyMsg carries the coordinator's decision back to the
// schedd.  The decision itself — grant or deny — travels as the
// flock-codec text payload (see flockmsg.go), the one part of the
// protocol that crosses pool-administration boundaries in the real
// system; a truncated or corrupt payload is therefore a first-class
// fault the schedd must scope, not a programming error.
type flockReplyMsg struct {
	Job     JobID
	Payload string
}

// TracedJob implements obs.JobTagged on every message body that
// concerns one job, so the bus can attribute message events without
// knowing daemon types.  Periodic advertisements and the starter's
// first contact (which does not yet know the job) stay untagged and
// therefore untraced.  A no-match run implements obs.JobRun instead:
// one event per job, as when each notice travelled alone.
func (m noMatchMsg) TracedJobs() int         { return len(m.Jobs) }
func (m noMatchMsg) TracedJobAt(i int) int64 { return int64(m.Jobs[i]) }
func (m matchNotifyMsg) TracedJob() int64    { return int64(m.Job) }
func (m claimRequestMsg) TracedJob() int64   { return int64(m.Job) }
func (m claimReplyMsg) TracedJob() int64     { return int64(m.Job) }
func (m activateMsg) TracedJob() int64       { return int64(m.Job) }
func (m jobDetailsMsg) TracedJob() int64     { return int64(m.Job) }
func (m fetchAbortMsg) TracedJob() int64     { return int64(m.Job) }
func (m jobResultMsg) TracedJob() int64      { return int64(m.Job) }
func (m jobFinalMsg) TracedJob() int64       { return int64(m.Job) }
func (m releaseClaimMsg) TracedJob() int64   { return int64(m.Job) }
func (m checkpointMsg) TracedJob() int64     { return int64(m.Job) }
func (m ckptCommitMsg) TracedJob() int64     { return int64(m.Job) }
func (m jobEvictedMsg) TracedJob() int64     { return int64(m.Job) }
func (m claimVacatedMsg) TracedJob() int64   { return int64(m.Job) }
func (m flockQueryMsg) TracedJob() int64     { return int64(m.Job) }
func (m flockReplyMsg) TracedJob() int64     { return int64(m.Job) }
