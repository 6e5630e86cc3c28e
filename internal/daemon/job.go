package daemon

import (
	"fmt"
	"time"

	"github.com/errscope/grid/internal/classad"
	"github.com/errscope/grid/internal/jvm"
	"github.com/errscope/grid/internal/scope"
	"github.com/errscope/grid/internal/sim"
)

// JobID identifies a job within one schedd, like a Condor cluster id.
type JobID int

// JobState is the lifecycle state of a queued job.
type JobState int

// Job lifecycle states.
const (
	JobIdle JobState = iota
	JobMatched
	JobRunning
	JobCompleted
	JobUnexecutable
	JobHeld
)

var jobStateNames = [...]string{
	JobIdle:         "idle",
	JobMatched:      "matched",
	JobRunning:      "running",
	JobCompleted:    "completed",
	JobUnexecutable: "unexecutable",
	JobHeld:         "held",
}

// String returns the state name.
func (s JobState) String() string {
	if s < 0 || int(s) >= len(jobStateNames) {
		return fmt.Sprintf("jobstate(%d)", int(s))
	}
	return jobStateNames[s]
}

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobCompleted || s == JobUnexecutable || s == JobHeld
}

// Attempt records one execution attempt of a job.
type Attempt struct {
	Machine string
	Start   sim.Time
	End     sim.Time
	// Reported is the result the starter reported up the chain —
	// under ModeNaive this is the raw exit interpretation.
	Reported scope.Result
	// True is the wrapper's scope-aware classification, recorded as
	// ground truth in both modes so experiments can measure the
	// information the naive mode destroys.
	True scope.Result
	// CPU is the virtual CPU the attempt consumed on the machine.
	CPU time.Duration
	// FetchError, when non-nil, is the shadow-side error that
	// prevented the attempt from running at all.
	FetchError error
	// LostContact, when non-nil, is the widened error recorded when
	// the execution site went silent mid-attempt.
	LostContact error
	// Evicted marks an attempt ended by the machine owner's return.
	Evicted bool
	// Preempted qualifies Evicted: the attempt ended because a
	// higher-Rank job took the claim, not because the owner returned.
	Preempted bool
}

// Job is one queued job: its ClassAd, its simulated program, and its
// submit-side files.
type Job struct {
	ID    JobID
	Owner string
	// Universe selects the execution environment: "java" (default)
	// runs inside the machine's JVM installation behind the wrapper;
	// "vanilla" runs directly on the operating system, so the
	// owner's Java configuration is irrelevant to it.
	Universe string
	// Ad carries Requirements/Rank and job attributes (ImageSize,
	// OutageTolerance, ...).  It is immutable once the job is
	// submitted: Submit renders it into the submit record, the first
	// record of the job's log, and every snapshot and history frame
	// carries that record, so an attribute set on a queued job's ad is
	// lost at the next recovery.  Set everything before Submit.
	Ad *classad.Ad
	// Program is the simulated Java program.
	Program *jvm.Program
	// Executable is the path of the program image on the submit
	// machine's file system; the shadow fetches it before each
	// attempt.  Empty means no fetch is needed.
	Executable string

	State    JobState
	Attempts []Attempt
	// Events is the job's user-facing event log.
	Events []JobEvent
	// CheckpointCPU is the best checkpoint recorded so far; the next
	// attempt of a Standard Universe job resumes from it.
	CheckpointCPU time.Duration
	// claimSeq invalidates stale claim timeouts.
	claimSeq int
	// avoidanceRelaxed marks a job whose chronic-failure avoidance
	// constraint was dropped after starving it (idle past
	// Params.ChronicRelaxAfter with zero compatible machines); the
	// next attempt re-arms the constraint.
	avoidanceRelaxed bool
	// Flock state (see Schedd.maybeFlock): flockedTo names the peer
	// negotiator the job is currently advertised at ("" = home), and
	// flockLevel its 1-based position in the configured peer order.
	// Every attempt and every recovery resets the job to home — the
	// remote advertisement is exactly what a peer-pool failure
	// invalidates, never the job.
	flockedTo  string
	flockLevel int
	// flockedAt is the instant of the last flock transition, pacing
	// escalation to the next peer.
	flockedAt sim.Time
	// flockPending marks an outstanding coordinator query;
	// flockPendingAt lets a lost reply expire instead of wedging the
	// job at its current level forever.
	flockPending   bool
	flockPendingAt sim.Time
	// inFlocked marks a job on its schedd's flocked list (setFlock).
	inFlocked bool
	// idleSlot is the job's position in its schedd's idle index plus
	// one; 0 while the job is not idle.
	idleSlot int
	// avoidingAd is the effective ad last built for the job under the
	// avoided list of version avoidingVer (Schedd.effectiveAd).
	avoidingAd  *classad.Ad
	avoidingVer int
	// FinalErr is the error (if any) accompanying a terminal state.
	FinalErr error
	// Submitted and Finished bracket the job's queue residency.
	Submitted sim.Time
	Finished  sim.Time

	// log is the job's own journal records, one per line, in the
	// order they applied: its submit record, every record journaled
	// for it since, and the requeue records the journal does not carry
	// (see handleFinal).  Replaying it into an empty queue rebuilds the
	// job, so a snapshot is the live jobs' logs and a history frame the
	// retiring jobs' logs (see scheddjournal.go).  Recovery appends a
	// copy of the fields it read from each record it applies, so a
	// rebuilt log never aliases the disk.
	// A retired job's log is dropped.
	log []byte
}

// logRecord appends one record to the job's log.
func (j *Job) logRecord(rec []byte) {
	j.log = append(append(j.log, rec...), '\n')
}

// LastAttempt returns the most recent attempt, or nil.
func (j *Job) LastAttempt() *Attempt {
	if len(j.Attempts) == 0 {
		return nil
	}
	return &j.Attempts[len(j.Attempts)-1]
}

// OutageTolerance reads the job's declared patience for submit-side
// outages (MountPerJob policy), or 0 when undeclared.
func (j *Job) OutageTolerance() time.Duration {
	v := j.Ad.EvalAttr("OutageTolerance", nil)
	if secs, ok := v.IntValue(); ok && secs > 0 {
		return time.Duration(secs) * time.Second
	}
	if f, ok := v.RealValue(); ok && f > 0 {
		return time.Duration(f * float64(time.Second))
	}
	return 0
}

// The constructor ads below bind these pre-parsed expressions instead
// of re-parsing the same constant sources per job; Expr is immutable
// after parsing, so one AST is safely shared by every ad.
var (
	javaJobRequirements   = classad.MustParseExpr("target.HasJava && target.Memory >= my.ImageSize")
	memoryJobRequirements = classad.MustParseExpr("target.Memory >= my.ImageSize")
	memoryRank            = classad.MustParseExpr("target.Memory")
)

// NewJavaJobAd builds the typical ad a Java Universe job submits:
// image size, owner, and requirements that the target machine
// advertise a working Java.
func NewJavaJobAd(owner string, imageSizeMB int64) *classad.Ad {
	ad := classad.NewAd()
	ad.SetString("Universe", "java")
	ad.SetString("Owner", owner)
	ad.SetInt("ImageSize", imageSizeMB)
	ad.Set("Requirements", javaJobRequirements)
	ad.Set("Rank", memoryRank)
	return ad
}

// NewStandardJobAd builds the ad of a Standard Universe job: a
// re-linked binary with transparent checkpointing; like vanilla it
// needs no Java.
func NewStandardJobAd(owner string, imageSizeMB int64) *classad.Ad {
	ad := classad.NewAd()
	ad.SetString("Universe", "standard")
	ad.SetString("Owner", owner)
	ad.SetInt("ImageSize", imageSizeMB)
	ad.Set("Requirements", memoryJobRequirements)
	ad.Set("Rank", memoryRank)
	return ad
}

// NewVanillaJobAd builds the ad of a Vanilla Universe job: a normal
// binary with no Java requirement — it happily runs on machines whose
// Java installation is broken.
func NewVanillaJobAd(owner string, imageSizeMB int64) *classad.Ad {
	ad := classad.NewAd()
	ad.SetString("Universe", "vanilla")
	ad.SetString("Owner", owner)
	ad.SetInt("ImageSize", imageSizeMB)
	ad.Set("Requirements", memoryJobRequirements)
	ad.Set("Rank", memoryRank)
	return ad
}
