package daemon

import (
	"time"

	"github.com/errscope/grid/internal/javaio"
	"github.com/errscope/grid/internal/jvm"
	"github.com/errscope/grid/internal/obs"
	"github.com/errscope/grid/internal/scope"
	"github.com/errscope/grid/internal/sim"
	"github.com/errscope/grid/internal/vfs"
)

// Shadow represents one running job on the submit side: it provides
// the details of the job to be run — the executable, input files,
// arguments — and manages errors of local-resource scope (Figure 3).
//
// When the submit-side file system is unavailable, the shadow applies
// the pool's mount policy (Section 5): retry quietly forever (hard),
// retry for a bounded time (soft), or retry for as long as this
// particular job declared it can tolerate (per-job).
type Shadow struct {
	bus Runtime
	// params also supplies the tracer, through params.tracer(): a
	// copy of it here would push the shadow past its size class.
	params Params
	name   string
	schedd string

	job        JobID
	universe   string
	program    *jvm.Program
	executable string
	tolerance  time.Duration // -1 means unbounded (hard mount)
	submitFS   *vfs.FileSystem
	machine    string

	outageStart sim.Time
	starter     string
	inOutage    bool
	finished    bool
	// stopLease cancels the claim-lease renewal ticker.
	stopLease func()
	// timeouts cancel the activation timeout ([0]) and the result
	// timeout ([1]), so a retired shadow leaves no timer behind to
	// keep it alive.
	timeouts [2]func()
	// lastCheckpoint is the freshest progress the starter shipped;
	// it survives the execution machine.
	lastCheckpoint time.Duration

	// Retries counts fetch retries, for the mount experiment.
	Retries int
}

// newShadow creates and registers the per-job shadow.
func newShadow(bus Runtime, params Params, name, schedd string, job *Job, submitFS *vfs.FileSystem, machine string) *Shadow {
	bus = affinity(bus, name)
	sh := &Shadow{
		bus:            bus,
		params:         params,
		name:           name,
		schedd:         schedd,
		job:            job.ID,
		universe:       job.Universe,
		program:        job.Program,
		lastCheckpoint: job.CheckpointCPU,
		executable:     job.Executable,
		submitFS:       submitFS,
		machine:        machine,
	}
	// Resolve the shadow's patience for submit-side outages.
	switch params.Mount.Kind {
	case MountHard:
		sh.tolerance = -1
	case MountPerJob:
		if t := job.OutageTolerance(); t > 0 {
			sh.tolerance = t
		} else {
			sh.tolerance = params.Mount.SoftTimeout
		}
	default:
		sh.tolerance = params.Mount.SoftTimeout
	}
	bus.Register(name, sh)
	// Claim lease: renew the machine's claim periodically for as long
	// as this shadow lives.  The renewals are the submit side's pulse;
	// when the schedd crashes and takes its shadows down, they stop,
	// and the startd's lease expiry releases the machine.
	sh.stopLease = bus.Every(leaseInterval, func() {
		if sh.finished {
			return
		}
		sh.bus.Send(sh.name, sh.machine, kindLeaseRenew, leaseRenewMsg{Job: sh.job})
	})
	// Activation timeout: if no starter ever contacts this shadow —
	// the machine died or was reclaimed between the claim grant and
	// the activation — the silence must not strand the job.  The
	// same discipline as the result timeout, armed from birth.
	if params.ResultTimeout > 0 {
		sh.timeouts[0] = bus.After(params.ResultTimeout, func() {
			if sh.finished || sh.starter != "" {
				return
			}
			silence := scope.New(scope.ScopeNetwork, "StarterSilent",
				"no starter contact within %v of activation", params.ResultTimeout)
			silence.Kind = scope.KindEscaping
			sh.finish(jobFinalMsg{
				Job:         sh.job,
				Machine:     sh.machine,
				LostContact: silence.Widen(scope.ScopeRemoteResource, "StarterVanished"),
			})
		})
	}
	return sh
}

// Receive implements sim.Actor.
func (sh *Shadow) Receive(msg sim.Message) {
	switch body := msg.Body.(type) {
	case fetchJobMsg:
		sh.starter = body.Starter
		sh.tryFetch()
	case jobResultMsg:
		sh.handleResult(body)
	case checkpointMsg:
		sh.handleCheckpoint(body)
	case jobEvictedMsg:
		sh.handleEvicted(body)
	}
}

// tryFetch locates the executable on the submit-side file system and
// ships the job to the starter, applying the mount policy to
// local-resource outages.
func (sh *Shadow) tryFetch() {
	if sh.finished {
		return
	}
	if sh.executable != "" {
		if _, err := sh.submitFS.ReadFile(sh.executable); err != nil {
			sh.fetchError(err)
			return
		}
	}
	sh.inOutage = false
	// Build the I/O library the job will use: the corrected library
	// under ModeScoped, the generic-IOException library under
	// ModeNaive.  Its transport reaches the submit file system — in
	// the live system this is Chirp over the shadow channel (see
	// package remoteio); in the simulation the data plane is direct
	// while the control plane stays message-accurate.
	generic := sh.params.Mode == ModeNaive
	transport := &javaio.VFSTransport{FS: sh.submitFS, AutoCreate: true}
	var lib *javaio.Library
	if generic {
		lib = javaio.NewGeneric(transport)
	} else {
		lib = javaio.New(transport)
	}
	sh.bus.Send(sh.name, sh.starter, kindJobDetails, jobDetailsMsg{
		Job:       sh.job,
		Universe:  sh.universe,
		ResumeCPU: sh.lastCheckpoint,
		Program:   sh.program,
		IO:        lib,
		Generic:   generic,
	})
	// Arm the result timeout: a starter silent past this point has
	// vanished.  The silence begins as a network-scope condition,
	// and its duration widens it to remote-resource scope — the
	// machine, not just the channel, is invalidated (Section 5).
	if sh.params.ResultTimeout > 0 {
		cancel := sh.bus.After(sh.params.ResultTimeout, func() {
			if sh.finished {
				return
			}
			silence := scope.New(scope.ScopeNetwork, "StarterSilent",
				"no result after %v", sh.params.ResultTimeout)
			silence.Kind = scope.KindEscaping
			sh.finish(jobFinalMsg{
				Job:         sh.job,
				Machine:     sh.machine,
				LostContact: silence.Widen(scope.ScopeRemoteResource, "StarterVanished"),
				// The last checkpoint survived the machine: the
				// next attempt resumes from it.
				CheckpointCPU: sh.lastCheckpoint,
			})
		})
		if first := sh.timeouts[1]; first != nil {
			// A duplicated fetch keeps both timeouts armed.
			second := cancel
			cancel = func() { first(); second() }
		}
		sh.timeouts[1] = cancel
	}
}

// fetchError applies scope analysis and the mount policy to a
// submit-side failure.
func (sh *Shadow) fetchError(err error) {
	se, ok := scope.AsError(err)
	if !ok {
		se = scope.New(scope.ScopeLocalResource, "ShadowError", "%v", err)
	}
	// A missing or unreadable executable invalidates the job itself:
	// the file-scope error expands to job scope in the shadow's
	// context (Section 3.3).
	if se.Scope <= scope.ScopeFile {
		sh.finish(jobFinalMsg{
			Job:        sh.job,
			Machine:    sh.machine,
			FetchError: se.Widen(scope.ScopeJob, "MissingInputFileError"),
		})
		return
	}
	// Local-resource scope: the job cannot run right now.  Apply
	// the mount policy.
	if !sh.inOutage {
		sh.inOutage = true
		sh.outageStart = sh.bus.Now()
	}
	elapsed := sh.bus.Now().Sub(sh.outageStart)
	if sh.tolerance >= 0 && elapsed >= sh.tolerance {
		// Patience exhausted: expose the error (soft mount).  The
		// schedd will requeue; the claim is released.
		sh.finish(jobFinalMsg{
			Job:        sh.job,
			Machine:    sh.machine,
			FetchError: se.WithOrigin("shadow"),
		})
		return
	}
	// A persistent outage eventually stops being "right now": after
	// MaxFetchRetries probes the shadow escalates instead of spinning
	// forever, and the schedd parks the job on hold with the
	// escalated execution-environment error.
	if max := sh.params.MaxFetchRetries; max > 0 && sh.Retries >= max {
		exhausted := scope.Escape(scope.ScopeLocalResource, "FetchRetriesExhausted", se)
		sh.finish(jobFinalMsg{
			Job:        sh.job,
			Machine:    sh.machine,
			FetchError: exhausted.WithOrigin("shadow"),
			Hold:       true,
		})
		return
	}
	// Keep waiting (hard mount, or patience remaining), backing off
	// exponentially up to the cap.
	sh.Retries++
	delay := sh.retryDelay()
	tr := sh.params.tracer()
	tr.Count("shadow.retries", 1)
	if tr.Enabled() {
		tr.Observe("shadow.backoff_ns", int64(delay))
		tr.Emit(obs.Event{
			T:     int64(sh.bus.Now()),
			Comp:  sh.name,
			Kind:  obs.KindRetry,
			Job:   int64(sh.job),
			Code:  se.Code,
			Scope: se.Scope.String(),
			Value: int64(delay),
		})
	}
	sh.bus.After(delay, sh.tryFetch)
}

// retryDelay computes the capped exponential backoff for the current
// retry count: base, 2·base, 4·base, ... up to MaxRetryInterval.
func (sh *Shadow) retryDelay() time.Duration {
	base := sh.params.Mount.RetryInterval
	if base <= 0 {
		// A zero interval would reschedule at the same virtual
		// instant and spin the simulation forever.
		base = time.Second
	}
	limit := sh.params.Mount.MaxRetryInterval
	if limit <= 0 {
		limit = 64 * base
	}
	d := base
	for i := 1; i < sh.Retries && d < limit; i++ {
		d *= 2
	}
	if d > limit {
		d = limit
	}
	return d
}

// handleCheckpoint validates one checkpoint record from the starter
// and, when it advances the job's progress, commits it through the
// schedd's journal so the checkpoint survives not just the execution
// machine but the schedd process too.  A record whose CRC does not
// hold, or that names a different job, is rejected: the damage is the
// record's (network scope), never the job's, and the previous
// committed checkpoint still stands.
func (sh *Shadow) handleCheckpoint(m checkpointMsg) {
	if sh.finished {
		return
	}
	job, cpu, err := ParseCheckpoint(m.Payload)
	if err == nil && job != sh.job {
		err = scope.New(scope.ScopeNetwork, "CheckpointMisrouted",
			"checkpoint names job %d, shadow serves job %d", job, sh.job)
	}
	if err != nil {
		tr := sh.params.tracer()
		tr.Count("shadow.ckpt_rejected", 1)
		if tr.Enabled() {
			tr.Emit(errorEvent(int64(sh.bus.Now()), sh.name, sh.job,
				ckptCorruptErr(err)))
		}
		return
	}
	if cpu <= sh.lastCheckpoint {
		return
	}
	sh.lastCheckpoint = cpu
	sh.bus.Send(sh.name, sh.schedd, kindCkptCommit, ckptCommitMsg{
		Job: sh.job,
		CPU: cpu,
	})
}

// handleEvicted requeues an owner-reclaimed (or preempted) attempt,
// carrying the final checkpoint home.
func (sh *Shadow) handleEvicted(ev jobEvictedMsg) {
	if ev.CheckpointCPU > sh.lastCheckpoint {
		sh.lastCheckpoint = ev.CheckpointCPU
	}
	sh.finish(jobFinalMsg{
		Job:           sh.job,
		Machine:       sh.machine,
		Evicted:       true,
		Preempted:     ev.Preempted,
		CheckpointCPU: sh.lastCheckpoint,
	})
}

// handleResult interprets the starter's report and informs the schedd.
func (sh *Shadow) handleResult(res jobResultMsg) {
	sh.finish(jobFinalMsg{
		Job:      sh.job,
		Machine:  sh.machine,
		Reported: res.Reported,
		True:     res.True,
		CPU:      res.CPU,
	})
}

// kill takes the shadow down with its crashing schedd: no final
// report, no cleanup protocol — the process simply ceases to exist.
// The execute side discovers the loss through lease expiry.
func (sh *Shadow) kill() {
	if sh.finished {
		return
	}
	sh.retire()
	sh.bus.Unregister(sh.name)
}

// retire marks the shadow finished and cancels every timer it armed:
// the lease ticker and the activation and result timeouts.
func (sh *Shadow) retire() {
	sh.finished = true
	if sh.stopLease != nil {
		sh.stopLease()
		sh.stopLease = nil
	}
	for i, cancel := range sh.timeouts {
		if cancel != nil {
			cancel()
			sh.timeouts[i] = nil
		}
	}
}

// finish sends the final report, releases resources, and retires the
// shadow.
func (sh *Shadow) finish(report jobFinalMsg) {
	if sh.finished {
		return
	}
	sh.retire()
	if tr := sh.params.tracer(); tr.Enabled() {
		// One hop per error the shadow forwards; a clean result emits
		// nothing, keeping clean completions span-free.
		now := int64(sh.bus.Now())
		switch {
		case report.FetchError != nil:
			tr.Emit(errorEvent(now, sh.name, sh.job, report.FetchError))
		case report.LostContact != nil:
			tr.Emit(errorEvent(now, sh.name, sh.job, report.LostContact))
		default:
			if err := report.Reported.Err(); err != nil {
				tr.Emit(errorEvent(now, sh.name, sh.job, err))
			}
		}
	}
	if report.FetchError != nil || report.LostContact != nil {
		if sh.starter != "" {
			sh.bus.Send(sh.name, sh.starter, kindFetchAbort, fetchAbortMsg{Job: sh.job})
		}
		sh.bus.Send(sh.name, sh.machine, kindReleaseClaim, releaseClaimMsg{Job: sh.job})
	}
	sh.bus.Send(sh.name, sh.schedd, kindJobFinal, report)
	sh.bus.Unregister(sh.name)
}
