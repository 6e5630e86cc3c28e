package daemon

import (
	"time"

	"github.com/errscope/grid/internal/jvm"
	"github.com/errscope/grid/internal/scope"
	"github.com/errscope/grid/internal/sim"
	"github.com/errscope/grid/internal/vfs"
	"github.com/errscope/grid/internal/wrapper"
)

// Starter oversees the execution environment for one job: it creates
// the scratch directory, obtains the job from the shadow, invokes the
// JVM on the wrapper, and reports the result file's contents — or,
// under ModeNaive, the raw JVM exit code — back to the shadow.
//
// The starter is the manager of virtual-machine and remote-resource
// scope (Figure 3): errors of those scopes terminate the attempt on
// this host and are reported upward, never presented as program
// results (in scoped mode).
//
// For Standard Universe jobs the starter also drives transparent
// checkpointing: progress ships to the shadow periodically, and an
// evicted or crashed attempt resumes elsewhere from the last
// checkpoint rather than from scratch.
type Starter struct {
	bus    Runtime
	params Params
	name   string
	startd *Startd
	job    JobID
	shadow string

	scratch *vfs.FileSystem
	done    bool

	// Execution bookkeeping for checkpoints and eviction.
	universe   string
	resume     time.Duration
	execCPU    time.Duration
	startedAt  sim.Time
	stopTicker func()
}

func newStarter(bus Runtime, params Params, name string, startd *Startd, job JobID, shadow string) *Starter {
	bus = affinity(bus, name)
	scratch := vfs.New()
	if startd.cfg.ScratchPrep != nil {
		startd.cfg.ScratchPrep(scratch)
	}
	return &Starter{
		bus:     bus,
		params:  params,
		name:    name,
		startd:  startd,
		job:     job,
		shadow:  shadow,
		scratch: scratch,
	}
}

// begin asks the shadow for the job details.
func (st *Starter) begin() {
	st.bus.Send(st.name, st.shadow, kindFetchJob, fetchJobMsg{Starter: st.name})
}

// Receive implements sim.Actor.
func (st *Starter) Receive(msg sim.Message) {
	switch body := msg.Body.(type) {
	case jobDetailsMsg:
		st.execute(body)
	case fetchAbortMsg:
		// The shadow gave up; the startd learns via release-claim.
		st.finish()
	}
}

// execute runs the job and schedules the result report after the
// virtual time the attempt consumes.
func (st *Starter) execute(det jobDetailsMsg) {
	if st.done {
		return
	}
	// Select the execution environment.  A Java Universe job runs on
	// the machine's actual JVM installation behind the wrapper; the
	// Vanilla and Standard Universes run ordinary binaries directly
	// on the operating system, immune to the owner's Java
	// configuration.
	machine := st.startd.Machine()
	if det.Universe == "vanilla" || det.Universe == "standard" {
		machine = jvm.New(jvm.Config{HeapLimit: 1 << 40, Version: "native"})
	}
	st.universe = det.Universe
	st.resume = det.ResumeCPU
	st.startedAt = st.bus.Now()

	tr := st.params.tracer()
	w := &wrapper.Wrapper{
		Trace:    tr,
		TraceJob: int64(st.job),
		TraceNow: func() int64 { return int64(st.bus.Now()) },
	}
	exec := w.RunFrom(machine, det.Program, det.IO, st.scratch, det.ResumeCPU)
	st.execCPU = exec.CPU

	// Ground truth: the wrapper's result file (or its absence).
	trueRes := wrapper.ReadResult(st.scratch)
	reported := trueRes
	if st.params.Mode == ModeNaive {
		// The original design: the starter relies entirely on the
		// exit code of the JVM as an indicator of program success.
		reported = wrapper.RawExitInterpretation(exec)
	}
	if tr.Enabled() {
		if err := reported.Err(); err != nil {
			// The starter's reading of the attempt — under ModeNaive
			// this can differ from the wrapper's ground truth, and the
			// divergence is visible in the span's hops.
			tr.Emit(errorEvent(int64(st.bus.Now()), st.name, st.job, err))
		}
	}

	// Standard Universe: ship periodic checkpoints to the shadow, as
	// canonical ckpt records (see ckptmsg.go) — the payload crosses
	// the pool boundary and the shadow validates its CRC.
	if st.universe == "standard" && st.params.CheckpointInterval > 0 {
		st.stopTicker = st.bus.Every(st.params.CheckpointInterval, func() {
			if st.done {
				return
			}
			cpu := st.resume + st.progressed()
			st.bus.Send(st.name, st.shadow, kindCheckpoint, checkpointMsg{
				Job:     st.job,
				Payload: EncodeCheckpoint(st.job, cpu),
			})
		})
	}

	elapsed := st.params.StartupOverhead + exec.CPU
	if k := st.checkpointsTaken(exec.CPU); k > 0 {
		elapsed += time.Duration(k) * st.params.CheckpointOverhead
	}
	st.bus.After(elapsed, func() {
		if st.done {
			// Stopped, or its machine crashed: a crashed machine
			// reports nothing, and the shadow's result timeout
			// discovers the silence.
			return
		}
		st.finish()
		st.bus.Send(st.name, st.shadow, kindJobResult, jobResultMsg{
			Job:      st.job,
			Reported: reported,
			True:     trueRes,
			CPU:      exec.CPU,
		})
		st.bus.Send(st.name, st.startd.Name(), "starter-done-internal",
			starterDoneMsg{Job: st.job, CPU: exec.CPU, Ran: true})
	})
}

// checkpointsTaken solves for the number of checkpoints an attempt of
// the given CPU pays for before it completes.  Each checkpoint stalls
// the program for CheckpointOverhead, and the stalls push the
// completion past later checkpoint ticks, which add their own stalls;
// the count is the fixed point of that recurrence.  The iteration
// converges only when the overhead is smaller than the interval — an
// overhead that long means the machine does nothing but checkpoint,
// so the bound caps the count rather than spinning.
func (st *Starter) checkpointsTaken(cpu time.Duration) int {
	o, iv := st.params.CheckpointOverhead, st.params.CheckpointInterval
	if st.universe != "standard" || iv <= 0 || o <= 0 {
		return 0
	}
	k := 0
	for range 64 {
		total := st.params.StartupOverhead + cpu + time.Duration(k)*o
		k2 := int(total / iv)
		if k2 <= k {
			break
		}
		k = k2
	}
	return k
}

// progressed returns the CPU this attempt has delivered so far: wall
// time since the startup overhead, minus the stalls already paid for
// checkpoints taken.
func (st *Starter) progressed() time.Duration {
	wall := st.bus.Now().Sub(st.startedAt)
	elapsed := wall - st.params.StartupOverhead
	if o, iv := st.params.CheckpointOverhead, st.params.CheckpointInterval; o > 0 && iv > 0 && st.universe == "standard" {
		elapsed -= time.Duration(wall/iv) * o
	}
	if elapsed < 0 {
		return 0
	}
	if elapsed > st.execCPU {
		return st.execCPU
	}
	return elapsed
}

// stop is called synchronously by the startd to end the attempt: the
// owner returned (evict), a higher-Rank claim preempts this one, or an
// admin drain's grace window closed.  A clean stop — an eviction, or a
// grace window long enough to ship a final checkpoint — lets a
// Standard Universe job leave with its progress; an expired window
// forfeits everything back to the last periodic checkpoint (the
// shadow keeps the max it has committed).  The shadow is told, so the
// schedd can requeue; preempted marks a claim taken by a challenger.
func (st *Starter) stop(clean, preempted bool) {
	if st.done {
		return
	}
	var checkpoint time.Duration
	if clean && st.universe == "standard" {
		checkpoint = st.resume + st.progressed()
	}
	st.finish()
	st.bus.Send(st.name, st.shadow, kindJobEvicted, jobEvictedMsg{
		Job:           st.job,
		CheckpointCPU: checkpoint,
		Preempted:     preempted,
	})
}

// shadowVanished ends the attempt when the claim lease expires with no
// renewal: the shadow — and with it the whole submit side — is gone.
// From the execute side the prolonged silence invalidates the remote
// peer, so the network-scope condition is widened to remote-resource
// scope (Section 5: time turns a quiet channel into a dead partner).
// There is nobody left to report to; the job's CPU is simply released
// instead of burning for a submitter that no longer exists.
func (st *Starter) shadowVanished() {
	if st.done {
		return
	}
	tr := st.params.tracer()
	if tr.Enabled() {
		silence := scope.New(scope.ScopeNetwork, "ShadowSilent",
			"claim lease expired with no renewal from %s", st.shadow)
		silence.Kind = scope.KindEscaping
		err := silence.Widen(scope.ScopeRemoteResource, "ShadowVanished")
		tr.Emit(errorEvent(int64(st.bus.Now()), st.name, st.job, err))
	}
	st.finish()
}

// finish marks the starter done and stops its checkpoint ticker.
func (st *Starter) finish() {
	st.done = true
	if st.stopTicker != nil {
		st.stopTicker()
		st.stopTicker = nil
	}
}
