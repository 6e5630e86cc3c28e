package experiments

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"strings"
	"time"

	"github.com/errscope/grid/internal/chirp"
	"github.com/errscope/grid/internal/daemon"
	"github.com/errscope/grid/internal/faultinject"
	"github.com/errscope/grid/internal/jvm"
	"github.com/errscope/grid/internal/monitor"
	"github.com/errscope/grid/internal/obs"
	"github.com/errscope/grid/internal/pool"
	"github.com/errscope/grid/internal/remoteio"
	"github.com/errscope/grid/internal/scope"
	"github.com/errscope/grid/internal/vfs"
	"github.com/errscope/grid/internal/wire"
	"github.com/errscope/grid/internal/wrapper"
)

// The fault-sweep conformance harness: every fault class of the
// injection engine, each at three or more injection sites, with the
// scope classification and disposition the paper mandates asserted
// per cell.  Each cell runs twice and its whole trace — injector log
// plus outcome line — must be byte-identical, so the sweep doubles as
// the determinism regression for the fault-injection engine itself.

// sweepExpect is what a cell must produce to conform.
type sweepExpect struct {
	state daemon.JobState
	disp  scope.Disposition
	// minAttempts (and maxAttempts, when non-zero) bound the retry
	// behavior: requeue-elsewhere cells demand ≥2, single-shot
	// cells exactly 1.
	minAttempts int
	maxAttempts int
	// firstScope/firstKind classify the first attempt's error;
	// ScopeNone means the first attempt must have no error at all.
	firstScope scope.Scope
	firstKind  scope.Kind
	// finalOn, when set, is the machine the job must finish on —
	// the "elsewhere" of retry-elsewhere.
	finalOn string
}

func (e sweepExpect) String() string {
	s := fmt.Sprintf("%s/%s", e.state, e.disp)
	if e.firstScope != scope.ScopeNone {
		s += fmt.Sprintf(" first=%s/%s", e.firstScope, e.firstKind)
	}
	return s
}

// simCell is one simulation-side sweep cell.
type simCell struct {
	class    faultinject.Class
	site     string
	faults   string // scenario fault lines, without the seed header
	machines func() []daemon.MachineConfig
	tune     func(*daemon.Params)
	setup    func(p *pool.Pool)
	prog     func(i int) *jvm.Program
	// standard submits the job in the Standard Universe (checkpointing
	// relinked binary) instead of the Java Universe.
	standard bool
	limit    time.Duration
	expect   sweepExpect
	// monitor, when set, attaches a streaming ops-plane monitor under
	// this name — with one subscribed collector — and registers it as
	// a fault-injection target for the monitor-site classes.
	monitor string
	// mcheck, when set, verifies the monitor's post-run state.  The
	// pool-side expectation still applies in full: a monitor fault
	// must never change what the pool does.
	mcheck func(*monitor.Monitor) error
}

// attemptErr extracts the error that classified one attempt, in the
// precedence order of the schedd's finalError: eviction (and its
// preemption qualifier) is policy, surfaced as an explicit
// remote-resource condition scoped to the claim.
func attemptErr(a daemon.Attempt) error {
	if a.Evicted {
		if a.Preempted {
			return scope.New(scope.ScopeRemoteResource, "Preempted",
				"a higher-Rank job preempted the claim on %s", a.Machine)
		}
		return scope.New(scope.ScopeRemoteResource, "Evicted",
			"the machine owner reclaimed %s", a.Machine)
	}
	if a.FetchError != nil {
		return a.FetchError
	}
	if a.LostContact != nil {
		return a.LostContact
	}
	return a.True.Err()
}

func errSig(err error) string {
	if err == nil {
		return "none"
	}
	se, ok := scope.AsError(err)
	if !ok {
		return "unscoped"
	}
	return fmt.Sprintf("%s/%s/%s", se.Scope, se.Kind, se.Code)
}

// runSim executes one cell and returns its canonical trace: the
// injector log followed by a single outcome line.  Identical traces
// across runs are the determinism contract.  A non-nil tr receives
// the structured propagation trace (see the trace experiment).
// workers > 1 runs the cell on the parallel engine, which must change
// no byte of the trace.
func (c simCell) runSim(seed int64, tr obs.Tracer, workers int) (string, error) {
	params := daemon.DefaultParams()
	params.ResultTimeout = 30 * time.Minute
	params.ChronicFailureThreshold = 1
	params.Trace = tr
	// A monitored cell streams from the pool's recorder; when the
	// sweep runs untraced, give it one so the stream carries real
	// events.  Recording is a pure observer and changes no trace byte.
	var rec *obs.Recorder
	if c.monitor != "" {
		if r, ok := tr.(*obs.Recorder); ok {
			rec = r
		} else {
			rec = obs.NewRecorder()
			params.Trace = rec
		}
	}
	if c.tune != nil {
		c.tune(&params)
	}
	p := pool.New(pool.Config{Seed: seed, Params: params, Machines: c.machines(), Workers: workers})
	targets := faultinject.PoolTargets(p)
	var mon *monitor.Monitor
	if c.monitor != "" {
		mon = monitor.Attach(p, rec, c.monitor)
		if err := mon.Subscribe(monitor.NewCollector(), 0); err != nil {
			return "", fmt.Errorf("subscribe: %v", err)
		}
		targets.Monitors = map[string]*monitor.Monitor{c.monitor: mon}
	}
	in := faultinject.New(targets)
	sc, err := faultinject.Parse(fmt.Sprintf("seed = %d\n%s", seed, c.faults))
	if err != nil {
		return "", fmt.Errorf("scenario: %v", err)
	}
	if err := in.Apply(sc); err != nil {
		return "", fmt.Errorf("apply: %v", err)
	}
	if c.setup != nil {
		c.setup(p)
	}
	prog := c.prog
	if prog == nil {
		prog = func(int) *jvm.Program { return jvm.WellBehaved(time.Minute) }
	}
	limit := c.limit
	if limit == 0 {
		limit = 24 * time.Hour
	}
	var ids []daemon.JobID
	if c.standard {
		ids = p.SubmitStandard(1, prog)
	} else {
		ids = p.SubmitJava(1, prog)
	}
	p.Run(limit)

	j := p.Schedd.Job(ids[0])
	first := "none"
	lastMachine := ""
	if len(j.Attempts) > 0 {
		first = errSig(attemptErr(j.Attempts[0]))
		lastMachine = j.LastAttempt().Machine
	}
	disp := "none"
	if n := len(p.Schedd.Reports); n > 0 {
		disp = p.Schedd.Reports[n-1].Disposition.String()
	}
	lines := append([]string(nil), in.Log()...)
	lines = append(lines, fmt.Sprintf(
		"t=%s state=%s attempts=%d first=%s final=%s on=%s disp=%s reports=%d",
		p.Engine.Now(), j.State, len(j.Attempts), first, errSig(j.FinalErr),
		lastMachine, disp, len(p.Schedd.Reports)))
	err = c.verify(p, j)
	if err == nil && mon != nil {
		mon.Pump()
		if c.mcheck != nil {
			err = c.mcheck(mon)
		}
	}
	return strings.Join(lines, "\n"), err
}

// verify checks the cell's expectation against the finished pool.
func (c simCell) verify(p *pool.Pool, j *daemon.Job) error {
	return verifyOutcome(c.expect, j, p.Schedd.Reports)
}

// verifyOutcome checks one expectation against a finished job and the
// reports its home schedd surfaced — shared by the single-pool and
// the federated cells.
func verifyOutcome(e sweepExpect, j *daemon.Job, reports []daemon.UserReport) error {
	if j.State != e.state {
		return fmt.Errorf("state = %v (err %v), want %v", j.State, j.FinalErr, e.state)
	}
	if n := len(j.Attempts); n < e.minAttempts {
		return fmt.Errorf("attempts = %d, want >= %d", n, e.minAttempts)
	} else if e.maxAttempts > 0 && n > e.maxAttempts {
		return fmt.Errorf("attempts = %d, want <= %d", n, e.maxAttempts)
	}
	// Cells with companion jobs (the preemption cells submit a
	// challenger) surface one report per job; only the job under
	// verification counts.
	var mine []daemon.UserReport
	for _, r := range reports {
		if r.Job == j.ID {
			mine = append(mine, r)
		}
	}
	if len(mine) != 1 {
		return fmt.Errorf("reports for job %d = %d, want exactly 1", j.ID, len(mine))
	}
	if got := mine[0].Disposition; got != e.disp {
		return fmt.Errorf("disposition = %v, want %v", got, e.disp)
	}
	if e.firstScope == scope.ScopeNone {
		if len(j.Attempts) > 0 {
			if err := attemptErr(j.Attempts[0]); err != nil {
				return fmt.Errorf("first attempt error = %v, want none", err)
			}
		}
	} else {
		if len(j.Attempts) == 0 {
			return fmt.Errorf("no attempts to classify")
		}
		err := attemptErr(j.Attempts[0])
		se, ok := scope.AsError(err)
		if !ok {
			return fmt.Errorf("first attempt error = %v, want scope %s", err, e.firstScope)
		}
		if se.Scope != e.firstScope || se.Kind != e.firstKind {
			return fmt.Errorf("first attempt error = %s/%s (%s), want %s/%s",
				se.Scope, se.Kind, se.Code, e.firstScope, e.firstKind)
		}
	}
	if e.finalOn != "" && j.LastAttempt().Machine != e.finalOn {
		return fmt.Errorf("finished on %s, want %s", j.LastAttempt().Machine, e.finalOn)
	}
	return nil
}

// bigSmall is the standard two-machine pool: jobs rank onto "big"
// first, and "small" is the healthy elsewhere for retry cells.
func bigSmall() []daemon.MachineConfig {
	return []daemon.MachineConfig{
		{Name: "big", Memory: 4096, AdvertiseJava: true},
		{Name: "small", Memory: 1024, AdvertiseJava: true},
	}
}

// brokenScratch returns bigSmall with a ScratchPrep fault on the
// named machines.
func brokenScratch(prep func(fs *vfs.FileSystem), names ...string) func() []daemon.MachineConfig {
	return func() []daemon.MachineConfig {
		ms := bigSmall()
		out := ms[:0]
		for i := range ms {
			for _, n := range names {
				if ms[i].Name == n {
					ms[i].ScratchPrep = prep
				}
			}
			out = append(out, ms[i])
		}
		return out
	}
}

// onlyMachine restricts a machine set to one machine.
func only(name string, machines func() []daemon.MachineConfig) func() []daemon.MachineConfig {
	return func() []daemon.MachineConfig {
		for _, m := range machines() {
			if m.Name == name {
				return []daemon.MachineConfig{m}
			}
		}
		return nil
	}
}

func capAttempts(n int) func(*daemon.Params) {
	return func(p *daemon.Params) { p.MaxAttempts = n }
}

func hardMount(p *daemon.Params) {
	p.Mount.Kind = daemon.MountHard
	p.Mount.RetryInterval = time.Minute
	p.ResultTimeout = 0
}

// simCells is the simulation half of the sweep matrix: every
// non-connection fault class at three or more injection sites.
func simCells() []simCell {
	writeOut := func(int) *jvm.Program {
		return &jvm.Program{Class: "Main", Steps: []jvm.Step{
			jvm.Compute{Duration: 30 * time.Second},
			jvm.IOWrite{Path: "/home/user/out", Data: bytes.Repeat([]byte("r"), 4096)},
			jvm.Compute{Duration: 30 * time.Second},
		}}
	}
	completed := func(first scope.Scope, kind scope.Kind, min int, on string) sweepExpect {
		return sweepExpect{state: daemon.JobCompleted, disp: scope.DispositionComplete,
			minAttempts: min, firstScope: first, firstKind: kind, finalOn: on}
	}
	held := func(first scope.Scope, kind scope.Kind) sweepExpect {
		return sweepExpect{state: daemon.JobHeld, disp: scope.DispositionHold,
			minAttempts: 1, firstScope: first, firstKind: kind}
	}
	rr := scope.ScopeRemoteResource

	return []simCell{
		// --- crash: a machine, the matchmaker, the schedd ---------
		{
			class: faultinject.ClassCrash, site: "machine:big",
			faults:   "fault class=crash site=machine:big at=5m0s for=2h0m0s\n",
			machines: bigSmall,
			prog:     func(int) *jvm.Program { return jvm.WellBehaved(20 * time.Minute) },
			expect:   completed(rr, scope.KindEscaping, 2, "small"),
		},
		{
			class: faultinject.ClassCrash, site: "actor:matchmaker",
			faults:   "fault class=crash site=actor:matchmaker at=1ms for=30m0s\n",
			machines: bigSmall,
			expect:   completed(scope.ScopeNone, 0, 1, ""),
		},
		{
			class: faultinject.ClassCrash, site: "actor:schedd",
			faults:   "fault class=crash site=actor:schedd at=1ms for=30m0s\n",
			machines: bigSmall,
			expect:   completed(scope.ScopeNone, 0, 1, ""),
		},
		// --- message drop: claim path, result path, ad path -------
		{
			class: faultinject.ClassMsgDrop, site: "kind:claim-request",
			faults:   "fault class=msg-drop site=kind:claim-request count=1\n",
			machines: bigSmall,
			expect:   completed(scope.ScopeNone, 0, 1, ""),
		},
		{
			class: faultinject.ClassMsgDrop, site: "kind:job-result",
			faults:   "fault class=msg-drop site=kind:job-result count=1\n",
			machines: bigSmall,
			expect:   completed(rr, scope.KindEscaping, 2, ""),
		},
		{
			class: faultinject.ClassMsgDrop, site: "kind:advertise",
			faults:   "fault class=msg-drop site=kind:advertise count=3\n",
			machines: bigSmall,
			expect:   completed(scope.ScopeNone, 0, 1, ""),
		},
		// --- message delay: absorbed by every protocol timeout ----
		{
			class: faultinject.ClassMsgDelay, site: "kind:advertise",
			faults:   "fault class=msg-delay site=kind:advertise param=2000\n",
			machines: bigSmall,
			expect:   completed(scope.ScopeNone, 0, 1, ""),
		},
		{
			class: faultinject.ClassMsgDelay, site: "kind:match-notify",
			faults:   "fault class=msg-delay site=kind:match-notify param=5000\n",
			machines: bigSmall,
			expect:   completed(scope.ScopeNone, 0, 1, ""),
		},
		{
			class: faultinject.ClassMsgDelay, site: "kind:claim-reply",
			faults:   "fault class=msg-delay site=kind:claim-reply param=5000\n",
			machines: bigSmall,
			expect:   completed(scope.ScopeNone, 0, 1, ""),
		},
		// --- message duplication: receivers must be idempotent ----
		{
			class: faultinject.ClassMsgDup, site: "kind:advertise",
			faults:   "fault class=msg-dup site=kind:advertise param=2\n",
			machines: bigSmall,
			expect:   completed(scope.ScopeNone, 0, 1, ""),
		},
		{
			class: faultinject.ClassMsgDup, site: "kind:match-notify",
			faults:   "fault class=msg-dup site=kind:match-notify param=1\n",
			machines: bigSmall,
			expect:   completed(scope.ScopeNone, 0, 1, ""),
		},
		{
			class: faultinject.ClassMsgDup, site: "kind:claim-reply",
			faults:   "fault class=msg-dup site=kind:claim-reply param=1\n",
			machines: bigSmall,
			expect:   completed(scope.ScopeNone, 0, 1, ""),
		},
		{
			class: faultinject.ClassMsgDup, site: "kind:job-result",
			faults:   "fault class=msg-dup site=kind:job-result param=2\n",
			machines: bigSmall,
			expect:   completed(scope.ScopeNone, 0, 1, ""),
		},
		// --- fs-offline: outage survived, budget exhausted, soft --
		{
			class: faultinject.ClassFSOffline, site: "submit (hard mount, outage ends)",
			faults:   "fault class=fs-offline site=submit at=1ms for=2h0m0s\n",
			machines: bigSmall,
			tune:     hardMount,
			expect:   completed(scope.ScopeNone, 0, 1, ""),
		},
		{
			class: faultinject.ClassFSOffline, site: "submit (hard mount, retries exhausted)",
			faults:   "fault class=fs-offline site=submit at=1ms\n",
			machines: bigSmall,
			tune: func(p *daemon.Params) {
				hardMount(p)
				p.Mount.RetryInterval = 30 * time.Second
				p.MaxFetchRetries = 5
			},
			limit:  48 * time.Hour,
			expect: held(scope.ScopeLocalResource, scope.KindEscaping),
		},
		{
			class: faultinject.ClassFSOffline, site: "submit (soft mount)",
			faults:   "fault class=fs-offline site=submit at=1ms\n",
			machines: bigSmall,
			tune:     capAttempts(3),
			// A soft mount returns the outage to its caller after the
			// timeout — an *explicit* local-resource error, the NFS
			// soft-mount EIO of Section 3.
			expect: held(scope.ScopeLocalResource, scope.KindExplicit),
		},
		// --- disk-full: scratch sandbox, job output, every scratch
		{
			class: faultinject.ClassDiskFull, site: "scratch:big",
			machines: brokenScratch(func(fs *vfs.FileSystem) { fs.SetQuota(1) }, "big"),
			expect:   completed(rr, scope.KindEscaping, 2, "small"),
		},
		{
			class: faultinject.ClassDiskFull, site: "submit (job output)",
			faults:   "fault class=disk-full site=submit\n",
			machines: bigSmall,
			prog:     writeOut,
			expect:   completed(scope.ScopeProgram, scope.KindExplicit, 1, ""),
		},
		{
			class: faultinject.ClassDiskFull, site: "scratch:small (no healthy elsewhere)",
			machines: only("small", brokenScratch(func(fs *vfs.FileSystem) { fs.SetQuota(1) }, "small")),
			tune:     capAttempts(3),
			expect:   held(rr, scope.KindEscaping),
		},
		// --- permission: result file, job output, every scratch ---
		{
			class: faultinject.ClassPermission, site: "scratch:big " + wrapper.DefaultResultPath,
			machines: brokenScratch(func(fs *vfs.FileSystem) {
				_ = fs.WriteFile(wrapper.DefaultResultPath, nil)
				_ = fs.SetReadOnly(wrapper.DefaultResultPath, true)
			}, "big"),
			expect: completed(rr, scope.KindEscaping, 2, "small"),
		},
		{
			class: faultinject.ClassPermission, site: "submit /home/user/out",
			faults:   "fault class=permission site=submit path=\"/home/user/out\"\n",
			machines: bigSmall,
			setup: func(p *pool.Pool) {
				_ = p.Schedd.SubmitFS.WriteFile("/home/user/out", []byte("old"))
			},
			prog:   writeOut,
			expect: completed(scope.ScopeProgram, scope.KindExplicit, 1, ""),
		},
		{
			class: faultinject.ClassPermission, site: "scratch:small (no healthy elsewhere)",
			machines: only("small", brokenScratch(func(fs *vfs.FileSystem) {
				_ = fs.WriteFile(wrapper.DefaultResultPath, nil)
				_ = fs.SetReadOnly(wrapper.DefaultResultPath, true)
			}, "small")),
			tune:   capAttempts(3),
			expect: held(rr, scope.KindEscaping),
		},
		// --- corrupt-data: executable image, program input, result
		// file.  The first two complete silently: implicit errors
		// are invisible unless the program checks (Principle 1).
		// The corrupted executable *image* is the exception — the
		// JVM's class-file verification converts it into an explicit
		// job-scope error, and the job is correctly aborted as
		// unexecutable rather than retried.
		{
			class: faultinject.ClassCorruptData, site: "submit /home/user/job0.class (image)",
			faults:   "fault class=corrupt-data site=submit path=\"/home/user/job0.class\"\n",
			machines: bigSmall,
			prog:     func(int) *jvm.Program { return jvm.CorruptImage() },
			expect: sweepExpect{state: daemon.JobUnexecutable, disp: scope.DispositionUnexecutable,
				minAttempts: 1, maxAttempts: 1, firstScope: scope.ScopeJob, firstKind: scope.KindEscaping},
		},
		{
			class: faultinject.ClassCorruptData, site: "submit /data/in (program input)",
			faults:   "fault class=corrupt-data site=submit path=\"/data/in\"\n",
			machines: bigSmall,
			setup: func(p *pool.Pool) {
				_ = p.Schedd.SubmitFS.WriteFile("/data/in", bytes.Repeat([]byte("d"), 256))
			},
			prog:   func(int) *jvm.Program { return jvm.ReadsInput("/data/in", 256) },
			expect: completed(scope.ScopeNone, 0, 1, ""),
		},
		{
			class: faultinject.ClassCorruptData, site: "scratch:big " + wrapper.DefaultResultPath,
			machines: brokenScratch(func(fs *vfs.FileSystem) {
				_ = fs.CorruptNextReads(wrapper.DefaultResultPath, 1)
			}, "big"),
			expect: completed(rr, scope.KindEscaping, 2, "small"),
		},
		// --- heap exhaustion: one machine, all machines, recovery -
		{
			class: faultinject.ClassHeapExhaustion, site: "machine:big",
			faults:   "fault class=heap-exhaustion site=machine:big param=1048576\n",
			machines: bigSmall,
			prog:     func(int) *jvm.Program { return jvm.MemoryHog(32 << 20) },
			expect:   completed(scope.ScopeVirtualMachine, scope.KindEscaping, 2, "small"),
		},
		{
			class: faultinject.ClassHeapExhaustion, site: "machine:big+machine:small (whole pool)",
			faults: "fault class=heap-exhaustion site=machine:big param=1048576\n" +
				"fault class=heap-exhaustion site=machine:small param=1048576\n",
			machines: bigSmall,
			tune:     capAttempts(3),
			prog:     func(int) *jvm.Program { return jvm.MemoryHog(32 << 20) },
			expect:   held(scope.ScopeVirtualMachine, scope.KindEscaping),
		},
		{
			class: faultinject.ClassHeapExhaustion, site: "machine:big (degradation window)",
			faults:   "fault class=heap-exhaustion site=machine:big at=1ms for=10m0s param=1048576\n",
			machines: only("big", bigSmall),
			tune: func(p *daemon.Params) {
				p.MaxAttempts = 100
				p.ChronicFailureThreshold = 0
			},
			prog:   func(int) *jvm.Program { return jvm.MemoryHog(32 << 20) },
			expect: completed(scope.ScopeVirtualMachine, scope.KindEscaping, 2, "big"),
		},
		// --- missing installation: same three shapes --------------
		{
			class: faultinject.ClassMissingInstall, site: "machine:big",
			faults:   "fault class=missing-installation site=machine:big\n",
			machines: bigSmall,
			expect:   completed(rr, scope.KindEscaping, 2, "small"),
		},
		{
			class: faultinject.ClassMissingInstall, site: "machine:big+machine:small (whole pool)",
			faults: "fault class=missing-installation site=machine:big\n" +
				"fault class=missing-installation site=machine:small\n",
			machines: bigSmall,
			tune:     capAttempts(3),
			expect:   held(rr, scope.KindEscaping),
		},
		{
			class: faultinject.ClassMissingInstall, site: "machine:big (reinstalled mid-queue)",
			faults:   "fault class=missing-installation site=machine:big at=1ms for=10m0s\n",
			machines: only("big", bigSmall),
			tune: func(p *daemon.Params) {
				p.MaxAttempts = 100
				p.ChronicFailureThreshold = 0
			},
			expect: completed(rr, scope.KindEscaping, 2, "big"),
		},
		// --- bad library path: same three shapes ------------------
		{
			class: faultinject.ClassBadLibraryPath, site: "machine:big",
			faults:   "fault class=bad-library-path site=machine:big\n",
			machines: bigSmall,
			expect:   completed(rr, scope.KindEscaping, 2, "small"),
		},
		{
			class: faultinject.ClassBadLibraryPath, site: "machine:big+machine:small (whole pool)",
			faults: "fault class=bad-library-path site=machine:big\n" +
				"fault class=bad-library-path site=machine:small\n",
			machines: bigSmall,
			tune:     capAttempts(3),
			expect:   held(rr, scope.KindEscaping),
		},
		{
			class: faultinject.ClassBadLibraryPath, site: "machine:big (repaired mid-queue)",
			faults:   "fault class=bad-library-path site=machine:big at=1ms for=10m0s\n",
			machines: only("big", bigSmall),
			tune: func(p *daemon.Params) {
				p.MaxAttempts = 100
				p.ChronicFailureThreshold = 0
			},
			expect: completed(rr, scope.KindEscaping, 2, "big"),
		},
		// --- schedd crash: idle, mid-execution, result in flight --
		// A real process death, not a partition: shadows and timers
		// die, and the restart replays the write-ahead journal.
		{
			class: faultinject.ClassScheddCrash, site: "schedd:schedd (idle, pre-match)",
			faults:   "fault class=schedd-crash site=schedd:schedd at=30s for=2m0s\n",
			machines: bigSmall,
			// The crash destroys nothing but time: the journal restores
			// the idle job, and its single attempt runs post-recovery.
			expect: completed(scope.ScopeNone, 0, 1, ""),
		},
		{
			class: faultinject.ClassScheddCrash, site: "schedd:schedd (mid-execution)",
			faults:   "fault class=schedd-crash site=schedd:schedd at=1m30s for=2m0s\n",
			machines: bigSmall,
			prog:     func(int) *jvm.Program { return jvm.WellBehaved(20 * time.Minute) },
			// The shadow dies with the schedd mid-attempt: recovery
			// closes the attempt with the local-resource ShadowDied and
			// requeues; the orphaned claim on big is still inside its
			// lease, so the retry lands on small while big's lease
			// expiry frees the abandoned slot.
			expect: completed(scope.ScopeLocalResource, scope.KindEscaping, 2, "small"),
		},
		{
			class: faultinject.ClassScheddCrash, site: "schedd:schedd (result in flight)",
			faults:   "fault class=schedd-crash site=schedd:schedd at=2m1s for=2m0s\n",
			machines: bigSmall,
			// The starter's report finds no shadow to receive it; the
			// journal knows only that the attempt never concluded, so
			// the recovered schedd runs the job again.
			expect: completed(scope.ScopeLocalResource, scope.KindEscaping, 2, ""),
		},
		// --- lease expiry: the execute side orphan-detects ---------
		{
			class: faultinject.ClassLeaseExpiry, site: "kind:lease-renew (first claim orphaned)",
			faults:   "fault class=lease-expiry site=kind:lease-renew at=4m0s for=10m0s\n",
			machines: bigSmall,
			prog:     func(int) *jvm.Program { return jvm.WellBehaved(20 * time.Minute) },
			// The startd concludes the submit side is dead and releases
			// the claim; the shadow's own result timeout then widens the
			// silence to remote-resource scope and the job retries.
			expect: completed(rr, scope.KindEscaping, 2, "small"),
		},
		{
			class: faultinject.ClassLeaseExpiry, site: "actor:shadow: (every shadow muted)",
			faults:   "fault class=lease-expiry site=actor:shadow: at=4m0s for=10m0s\n",
			machines: bigSmall,
			prog:     func(int) *jvm.Program { return jvm.WellBehaved(20 * time.Minute) },
			expect:   completed(rr, scope.KindEscaping, 2, "small"),
		},
		{
			class: faultinject.ClassLeaseExpiry, site: "kind:lease-renew (one renewal lost, lease survives)",
			faults:   "fault class=lease-expiry site=kind:lease-renew at=2m30s for=2m0s\n",
			machines: bigSmall,
			prog:     func(int) *jvm.Program { return jvm.WellBehaved(20 * time.Minute) },
			// LeaseDuration covers more than two renewal intervals, so a
			// single lost pulse must not kill a healthy claim.
			expect: completed(scope.ScopeNone, 0, 1, ""),
		},
		// --- eviction-mid-checkpoint: the owner returns.  The vacate
		// ships a final checkpoint, so the requeued attempt resumes;
		// the eviction itself is explicit remote-resource policy, not
		// machine blame.
		{
			class: faultinject.ClassEvictMidCkpt, site: "machine:big (owner works for two hours)",
			faults:   "fault class=eviction-mid-checkpoint site=machine:big at=25m0s for=2h0m0s\n",
			machines: bigSmall,
			standard: true,
			prog:     standard45,
			expect:   completed(rr, scope.KindExplicit, 2, "small"),
		},
		{
			class: faultinject.ClassEvictMidCkpt, site: "machine:big (owner keeps the machine)",
			faults:   "fault class=eviction-mid-checkpoint site=machine:big at=25m0s\n",
			machines: bigSmall,
			standard: true,
			prog:     standard45,
			expect:   completed(rr, scope.KindExplicit, 2, "small"),
		},
		{
			class: faultinject.ClassEvictMidCkpt, site: "machine:big (brief owner visit, pre-checkpoint)",
			faults:   "fault class=eviction-mid-checkpoint site=machine:big at=5m0s for=30s\n",
			machines: bigSmall,
			standard: true,
			prog:     standard45,
			expect:   completed(rr, scope.KindExplicit, 2, ""),
		},
		// --- restart-different-machine: a silent crash loses the
		// machine but not the journaled checkpoints; the job resumes
		// wherever the matchmaker puts it next.
		{
			class: faultinject.ClassRestartElsewhere, site: "machine:big (resume from mid-run checkpoint)",
			faults:   "fault class=restart-different-machine site=machine:big at=25m0s for=2h0m0s\n",
			machines: bigSmall,
			standard: true,
			tune:     resultTimeout50,
			prog:     standard45,
			limit:    48 * time.Hour,
			expect:   completed(rr, scope.KindEscaping, 2, "small"),
		},
		{
			class: faultinject.ClassRestartElsewhere, site: "machine:big (lost before the first checkpoint)",
			faults:   "fault class=restart-different-machine site=machine:big at=5m0s for=2h0m0s\n",
			machines: bigSmall,
			standard: true,
			tune:     resultTimeout50,
			prog:     standard45,
			limit:    48 * time.Hour,
			expect:   completed(rr, scope.KindEscaping, 2, "small"),
		},
		{
			class: faultinject.ClassRestartElsewhere, site: "machine:big (no elsewhere: resumes on the restarted machine)",
			faults:   "fault class=restart-different-machine site=machine:big at=25m0s for=30m0s\n",
			machines: only("big", bigSmall),
			standard: true,
			// The restart lands after the shadow's discovery; with no
			// blame and no other machine, the requeued job waits for the
			// reboot and resumes where it crashed.
			tune: func(p *daemon.Params) {
				resultTimeout50(p)
				p.ChronicFailureThreshold = 0
			},
			prog:   standard45,
			limit:  48 * time.Hour,
			expect: completed(rr, scope.KindEscaping, 2, "big"),
		},
		// --- corrupt-checkpoint: the CRC rejects damaged records, so
		// corruption costs rework, never correctness; the vacate path
		// carries its checkpoint out of band and is immune.
		{
			class: faultinject.ClassCorruptCkpt, site: "kind:checkpoint (every record, machine lost)",
			faults: "fault class=corrupt-checkpoint site=kind:checkpoint at=1ms\n" +
				"fault class=crash site=machine:big at=25m0s\n",
			machines: bigSmall,
			standard: true,
			tune:     resultTimeout50,
			prog:     standard45,
			limit:    48 * time.Hour,
			expect:   completed(rr, scope.KindEscaping, 2, "small"),
		},
		{
			class: faultinject.ClassCorruptCkpt, site: "kind:checkpoint (one record, next commit stands)",
			faults: "fault class=corrupt-checkpoint site=kind:checkpoint at=1ms count=1\n" +
				"fault class=crash site=machine:big at=25m0s\n",
			machines: bigSmall,
			standard: true,
			tune:     resultTimeout50,
			prog:     standard45,
			limit:    48 * time.Hour,
			expect:   completed(rr, scope.KindEscaping, 2, "small"),
		},
		{
			class: faultinject.ClassCorruptCkpt, site: "kind:checkpoint (vacate path immune)",
			faults: "fault class=corrupt-checkpoint site=kind:checkpoint at=1ms\n" +
				"fault class=eviction-mid-checkpoint site=machine:big at=25m0s for=2h0m0s\n",
			machines: bigSmall,
			standard: true,
			prog:     standard45,
			expect:   completed(rr, scope.KindExplicit, 2, "small"),
		},
		// --- preempt-grace-expiry: a higher-Rank challenger takes the
		// pool's only machine.  The incumbent's first attempt ends as
		// an explicit remote-resource preemption; how much work it
		// keeps depends on whether the grace window still covers the
		// final checkpoint transfer.
		{
			class: faultinject.ClassPreemptGrace, site: "machine:big (grace below the transfer time)",
			faults:   "fault class=preempt-grace-expiry site=machine:big at=1m0s\n",
			machines: only("big", bigSmall),
			standard: true,
			tune:     preemptionOn,
			prog:     func(int) *jvm.Program { return jvm.WellBehaved(90 * time.Minute) },
			setup:    func(p *pool.Pool) { submitChallenger(p, 45*time.Minute, 30*time.Minute, "10000") },
			limit:    48 * time.Hour,
			expect:   completed(rr, scope.KindExplicit, 2, "big"),
		},
		{
			class: faultinject.ClassPreemptGrace, site: "machine:big (grace still covers the handoff)",
			faults:   "fault class=preempt-grace-expiry site=machine:big at=1m0s param=60000\n",
			machines: only("big", bigSmall),
			standard: true,
			tune:     preemptionOn,
			prog:     func(int) *jvm.Program { return jvm.WellBehaved(90 * time.Minute) },
			setup:    func(p *pool.Pool) { submitChallenger(p, 45*time.Minute, 30*time.Minute, "10000") },
			limit:    48 * time.Hour,
			expect:   completed(rr, scope.KindExplicit, 2, "big"),
		},
		{
			class: faultinject.ClassPreemptGrace, site: "machine:big (sub-second grace, coarse checkpoints)",
			faults:   "fault class=preempt-grace-expiry site=machine:big at=1m0s param=500\n",
			machines: only("big", bigSmall),
			standard: true,
			tune: func(p *daemon.Params) {
				preemptionOn(p)
				p.CheckpointInterval = 15 * time.Minute
			},
			prog:   func(int) *jvm.Program { return jvm.WellBehaved(90 * time.Minute) },
			setup:  func(p *pool.Pool) { submitChallenger(p, 45*time.Minute, 30*time.Minute, "10000") },
			limit:  48 * time.Hour,
			expect: completed(rr, scope.KindExplicit, 2, "big"),
		},
		// --- monitor-stream-drop: the ops plane dies mid-run.  The
		// monitor is a pure observer, so every cell expects exactly what
		// the same workload produces with no monitor attached at all —
		// the scope of the loss is the subscriber sessions, never the
		// pool, and the golden trace is the unperturbed baseline.
		{
			class: faultinject.ClassMonitorStreamDrop, site: "monitor:ops (subscribers dropped mid-run)",
			faults:   "fault class=monitor-stream-drop site=monitor:ops at=10m0s\n",
			machines: bigSmall,
			monitor:  "ops",
			prog:     func(int) *jvm.Program { return jvm.WellBehaved(20 * time.Minute) },
			expect:   completed(scope.ScopeNone, 0, 1, ""),
			mcheck: func(m *monitor.Monitor) error {
				if m.Dropped() != 1 || m.Killed() {
					return fmt.Errorf("dropped=%d killed=%v, want 1 subscriber dropped and the daemon alive",
						m.Dropped(), m.Killed())
				}
				return nil
			},
		},
		{
			class: faultinject.ClassMonitorStreamDrop, site: "monitor:ops (daemon killed mid-run)",
			faults:   "fault class=monitor-stream-drop site=monitor:ops at=10m0s param=1\n",
			machines: bigSmall,
			monitor:  "ops",
			prog:     func(int) *jvm.Program { return jvm.WellBehaved(20 * time.Minute) },
			expect:   completed(scope.ScopeNone, 0, 1, ""),
			mcheck: func(m *monitor.Monitor) error {
				if !m.Killed() {
					return fmt.Errorf("the kill fault left the monitor alive")
				}
				return nil
			},
		},
		{
			class: faultinject.ClassMonitorStreamDrop, site: "monitor:ops (killed while a machine crash recovers)",
			faults: "fault class=monitor-stream-drop site=monitor:ops at=10m0s param=1\n" +
				"fault class=crash site=machine:big at=5m0s for=2h0m0s\n",
			machines: bigSmall,
			monitor:  "ops",
			prog:     func(int) *jvm.Program { return jvm.WellBehaved(20 * time.Minute) },
			expect:   completed(rr, scope.KindEscaping, 2, "small"),
		},
		// --- drain-grace-expiry: an admin drains the machine under the
		// job.  The resident is vacated as an explicit remote-resource
		// eviction; whether its final checkpoint ships depends on the
		// grace the drain allows, and a drained machine rejoins the
		// matchmaker only when the drain is lifted.
		{
			class: faultinject.ClassDrainGraceExpiry, site: "machine:big (grace expires below the checkpoint ship)",
			faults:   "fault class=drain-grace-expiry site=machine:big at=25m0s\n",
			machines: bigSmall,
			standard: true,
			tune:     resultTimeout50,
			prog:     standard45,
			limit:    48 * time.Hour,
			expect:   completed(rr, scope.KindExplicit, 2, "small"),
		},
		{
			class: faultinject.ClassDrainGraceExpiry, site: "machine:big (grace covers a clean vacate)",
			faults:   "fault class=drain-grace-expiry site=machine:big at=25m0s param=60000\n",
			machines: bigSmall,
			standard: true,
			tune:     resultTimeout50,
			prog:     standard45,
			limit:    48 * time.Hour,
			expect:   completed(rr, scope.KindExplicit, 2, "small"),
		},
		{
			class: faultinject.ClassDrainGraceExpiry, site: "machine:big (no elsewhere: resumes when the drain lifts)",
			faults:   "fault class=drain-grace-expiry site=machine:big at=25m0s param=60000 for=30m0s\n",
			machines: only("big", bigSmall),
			standard: true,
			tune: func(p *daemon.Params) {
				resultTimeout50(p)
				p.ChronicFailureThreshold = 0
			},
			prog:   standard45,
			limit:  48 * time.Hour,
			expect: completed(rr, scope.KindExplicit, 2, "big"),
		},
	}
}

// standard45 is the canonical checkpointing workload of the
// robustness cells: 45 minutes of compute in the Standard Universe,
// checkpointed every 10 minutes under the default parameters.
func standard45(int) *jvm.Program { return jvm.WellBehaved(45 * time.Minute) }

// resultTimeout50 stretches the shadow's result timeout past the
// 45-minute standard workload, so a healthy attempt is never falsely
// declared vanished while a crashed one still is.
func resultTimeout50(p *daemon.Params) { p.ResultTimeout = 50 * time.Minute }

// preemptionOn enables Rank preemption and disables the result
// timeout: the preemption cells run a 90-minute incumbent, far past
// the sweep's default 30-minute timeout, and every loss they test is
// announced, never silent.
func preemptionOn(p *daemon.Params) {
	p.Preemption = true
	p.ResultTimeout = 0
}

// submitChallenger schedules a second Standard Universe job at the
// given virtual time whose constant Rank outbids the default
// memory-rank of any machine — the contender the preemption cells
// need.
func submitChallenger(p *pool.Pool, at, d time.Duration, rank string) {
	p.Engine.After(at, func() {
		exe := "/home/user/challenger.exe"
		_ = p.Schedd.SubmitFS.WriteFile(exe, []byte("relinked binary"))
		ad := daemon.NewStandardJobAd("user", 128)
		ad.MustSetExpr("Rank", rank)
		p.Schedd.Submit(&daemon.Job{
			Owner:      "user",
			Universe:   "standard",
			Ad:         ad,
			Program:    jvm.WellBehaved(d),
			Executable: exe,
		})
	})
}

// connExpect is the classification a live-stack cell must observe:
// the scope, kind, and error code of the surfaced failure, and its
// fate under Dispose.
type connExpect struct {
	scope scope.Scope
	kind  scope.Kind
	code  string
	disp  scope.Disposition
}

func (e connExpect) String() string {
	return fmt.Sprintf("%s/%s/%s -> %s", e.scope, e.kind, e.code, e.disp)
}

// lostExpect is the classic transport contract: an escaping
// network-scope ConnectionLost, the indeterminate-scope signal that
// forces the caller to widen (Section 5), with disposition retry
// (requeue), never a program result.
func lostExpect() connExpect {
	return connExpect{scope.ScopeNetwork, scope.KindEscaping, "ConnectionLost", scope.DispositionRequeue}
}

// connCell is one live-stack sweep cell: a real client/server pair
// with a fault proxy between them.  A zero want defaults to
// lostExpect; the frame-level classes demand their own codes
// (ChecksumMismatch, TruncatedFrame, MACFailure, ReplayedFrame,
// KeyExpired), each still disposed as a retry.
type connCell struct {
	class faultinject.Class
	site  string
	run   func() error // returns the observed transport error
	want  connExpect
}

func (c connCell) expect() connExpect {
	if c.want.code == "" {
		return lostExpect()
	}
	return c.want
}

// runConn executes a connection cell, asserting classification and
// returning the canonical trace line.
func (c connCell) runConn() (string, error) {
	want := c.expect()
	err := c.run()
	sig := errSig(err)
	trace := fmt.Sprintf("%s %s -> %s", c.class, c.site, sig)
	if err == nil {
		return trace, fmt.Errorf("operation over the faulted connection succeeded")
	}
	se, ok := scope.AsError(err)
	if !ok {
		return trace, fmt.Errorf("unscoped transport error: %v", err)
	}
	if se.Scope != want.scope || se.Kind != want.kind || se.Code != want.code {
		return trace, fmt.Errorf("classified %s/%s/%s, want %s/%s/%s",
			se.Scope, se.Kind, se.Code, want.scope, want.kind, want.code)
	}
	if d := scope.DisposeError(se); d != want.disp {
		return trace, fmt.Errorf("disposition %v, want %v (retry elsewhere)", d, want.disp)
	}
	return trace, nil
}

// chirpThroughMode runs op over a chirp session in the given wire
// mode, dialed through a fault proxy, and returns the first transport
// error observed.  rekey caps the client's sealed-frame budget.
func chirpThroughMode(mode wire.Mode, rekey uint64, fault faultinject.ConnFault, op func(c *chirp.Client) error) error {
	fs := vfs.New()
	if err := fs.WriteFile("/data", bytes.Repeat([]byte("x"), 4096)); err != nil {
		return err
	}
	srv := chirp.NewServer(&chirp.VFSBackend{FS: fs}, "ck")
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	px, err := faultinject.NewProxy(addr, fault)
	if err != nil {
		return err
	}
	defer px.Close()
	c, err := chirp.DialOpts(px.Addr(), "ck", chirp.DialOptions{Mode: mode, RekeyAfter: rekey})
	if err != nil {
		return err
	}
	defer c.Close()
	return op(c)
}

// chirpThrough is chirpThroughMode on the classic text protocol.
func chirpThrough(fault faultinject.ConnFault, op func(c *chirp.Client) error) error {
	return chirpThroughMode(wire.ModeText, 0, fault, op)
}

// remoteioThrough is the remote-I/O twin of chirpThroughMode.
func remoteioThrough(mode wire.Mode, rekey uint64, fault faultinject.ConnFault, op func(c *remoteio.Client) error) error {
	fs := vfs.New()
	if err := fs.WriteFile("/in", bytes.Repeat([]byte("y"), 4096)); err != nil {
		return err
	}
	srv := remoteio.NewServer(fs, []byte("key"))
	srv.Mode = mode
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	px, err := faultinject.NewProxy(addr, fault)
	if err != nil {
		return err
	}
	defer px.Close()
	c, err := remoteio.DialOpts(px.Addr(), []byte("key"), remoteio.DialOptions{Mode: mode, RekeyAfter: rekey})
	if err != nil {
		return err
	}
	defer c.Close()
	return op(c)
}

// connCells is the live half of the sweep matrix.
func connCells() []connCell {
	readLoop := func(c *chirp.Client) error {
		fd, err := c.Open("/data", chirp.FlagRead)
		if err != nil {
			return err
		}
		for i := 0; i < 16; i++ {
			if _, err := c.Read(fd, 4096); err != nil {
				return err
			}
		}
		return nil
	}
	writeLoop := func(c *chirp.Client) error {
		fd, err := c.Open("/out", chirp.FlagWrite|chirp.FlagCreate)
		if err != nil {
			return err
		}
		for i := 0; i < 16; i++ {
			if _, err := c.Write(fd, bytes.Repeat([]byte("w"), 256)); err != nil {
				return err
			}
		}
		return nil
	}
	rioReadLoop := func(c *remoteio.Client) error {
		for i := 0; i < 16; i++ {
			if _, err := c.Read("/in", 0, 4096); err != nil {
				return err
			}
		}
		return nil
	}
	remoteioRead := func(fault faultinject.ConnFault) error {
		return remoteioThrough(wire.ModeText, 0, fault, rioReadLoop)
	}
	netErr := func(code string) connExpect {
		return connExpect{scope.ScopeNetwork, scope.KindEscaping, code, scope.DispositionRequeue}
	}
	keyErr := func(kind scope.Kind) connExpect {
		return connExpect{scope.ScopeLocalResource, kind, wire.CodeKeyExpired, scope.DispositionRequeue}
	}
	// Server→client frame indices on the binary wire: binary mode is
	// authOK(1), open-resp(2), read-resp(3) for chirp and authOK(1),
	// read-resp(2) for remoteio; secure mode spends two handshake
	// frames first — helloAck(1), proofAck(2) — shifting each RPC
	// response up by one.
	return []connCell{
		{class: faultinject.ClassConnTruncate, site: "chirp (response stream)", run: func() error {
			return chirpThrough(faultinject.ConnFault{CutToClient: 64}, readLoop)
		}},
		{class: faultinject.ClassConnTruncate, site: "chirp (handshake)", run: func() error {
			return chirpThrough(faultinject.ConnFault{CutToClient: 3}, readLoop)
		}},
		{class: faultinject.ClassConnTruncate, site: "remoteio (response stream)", run: func() error {
			return remoteioRead(faultinject.ConnFault{CutToClient: 80})
		}},
		{class: faultinject.ClassConnReset, site: "chirp (response stream)", run: func() error {
			return chirpThrough(faultinject.ConnFault{CutToClient: 64, Reset: true}, readLoop)
		}},
		{class: faultinject.ClassConnReset, site: "chirp (request stream)", run: func() error {
			return chirpThrough(faultinject.ConnFault{CutToServer: 48, Reset: true}, writeLoop)
		}},
		{class: faultinject.ClassConnReset, site: "remoteio (response stream)", run: func() error {
			return remoteioRead(faultinject.ConnFault{CutToClient: 80, Reset: true})
		}},

		// --- frame-corrupt: one flipped byte, caught by the frame
		// checksum on the binary wire -------------------------------
		{class: faultinject.ClassFrameCorrupt, site: "chirp binary (read response)",
			want: netErr(wire.CodeChecksumMismatch), run: func() error {
				return chirpThroughMode(wire.ModeBinary, 0, faultinject.ConnFault{CorruptFrame: 3}, readLoop)
			}},
		{class: faultinject.ClassFrameCorrupt, site: "chirp binary (open response)",
			want: netErr(wire.CodeChecksumMismatch), run: func() error {
				return chirpThroughMode(wire.ModeBinary, 0, faultinject.ConnFault{CorruptFrame: 2}, readLoop)
			}},
		{class: faultinject.ClassFrameCorrupt, site: "remoteio binary (read response)",
			want: netErr(wire.CodeChecksumMismatch), run: func() error {
				return remoteioThrough(wire.ModeBinary, 0, faultinject.ConnFault{CorruptFrame: 2}, rioReadLoop)
			}},

		// --- frame-truncate: a frame cut inside its header ---------
		{class: faultinject.ClassFrameTruncate, site: "chirp binary (read response)",
			want: netErr(wire.CodeTruncatedFrame), run: func() error {
				return chirpThroughMode(wire.ModeBinary, 0, faultinject.ConnFault{TruncateFrame: 3}, readLoop)
			}},
		{class: faultinject.ClassFrameTruncate, site: "chirp secure (sealed read response)",
			want: netErr(wire.CodeTruncatedFrame), run: func() error {
				return chirpThroughMode(wire.ModeSecure, 0, faultinject.ConnFault{TruncateFrame: 4}, readLoop)
			}},
		{class: faultinject.ClassFrameTruncate, site: "remoteio binary (read response)",
			want: netErr(wire.CodeTruncatedFrame), run: func() error {
				return remoteioThrough(wire.ModeBinary, 0, faultinject.ConnFault{TruncateFrame: 2}, rioReadLoop)
			}},

		// --- mac-failure: the corruption repairs the frame checksum,
		// so only the AEAD layer of the secure session catches it ---
		{class: faultinject.ClassMACFailure, site: "chirp secure (read response)",
			want: netErr(wire.CodeMACFailure), run: func() error {
				return chirpThroughMode(wire.ModeSecure, 0,
					faultinject.ConnFault{CorruptFrame: 4, FixChecksum: true}, readLoop)
			}},
		{class: faultinject.ClassMACFailure, site: "chirp secure (open response)",
			want: netErr(wire.CodeMACFailure), run: func() error {
				return chirpThroughMode(wire.ModeSecure, 0,
					faultinject.ConnFault{CorruptFrame: 3, FixChecksum: true}, readLoop)
			}},
		{class: faultinject.ClassMACFailure, site: "remoteio secure (read response)",
			want: netErr(wire.CodeMACFailure), run: func() error {
				return remoteioThrough(wire.ModeSecure, 0,
					faultinject.ConnFault{CorruptFrame: 3, FixChecksum: true}, rioReadLoop)
			}},

		// --- frame-replay: the duplicate answers nothing; the
		// sequence counter rejects it when the next response is due -
		{class: faultinject.ClassFrameReplay, site: "chirp secure (read response)",
			want: netErr(wire.CodeReplayedFrame), run: func() error {
				return chirpThroughMode(wire.ModeSecure, 0, faultinject.ConnFault{ReplayFrame: 4}, readLoop)
			}},
		{class: faultinject.ClassFrameReplay, site: "chirp binary (read response)",
			want: netErr(wire.CodeReplayedFrame), run: func() error {
				return chirpThroughMode(wire.ModeBinary, 0, faultinject.ConnFault{ReplayFrame: 3}, readLoop)
			}},
		{class: faultinject.ClassFrameReplay, site: "remoteio secure (read response)",
			want: netErr(wire.CodeReplayedFrame), run: func() error {
				return remoteioThrough(wire.ModeSecure, 0, faultinject.ConnFault{ReplayFrame: 3}, rioReadLoop)
			}},

		// --- key-expiry: the sealed-frame budget runs out.  The
		// client-side budget escapes from the refusal point; the
		// server-side budget is an explicit in-band refusal.  Both are
		// local-resource scope — the channel's security state, not the
		// network — and both dispose as a retry.
		{class: faultinject.ClassKeyExpiry, site: "chirp secure (client budget)",
			want: keyErr(scope.KindEscaping), run: func() error {
				// Sealed sends: proof(1), open(2), read(3); the next
				// read refuses locally.
				return chirpThroughMode(wire.ModeSecure, 3, faultinject.ConnFault{}, readLoop)
			}},
		{class: faultinject.ClassKeyExpiry, site: "remoteio secure (client budget)",
			want: keyErr(scope.KindEscaping), run: func() error {
				return remoteioThrough(wire.ModeSecure, 3, faultinject.ConnFault{}, rioReadLoop)
			}},
		{class: faultinject.ClassKeyExpiry, site: "remoteio secure (server-side expiry)",
			want: keyErr(scope.KindExplicit), run: func() error {
				fs := vfs.New()
				if err := fs.WriteFile("/in", bytes.Repeat([]byte("y"), 256)); err != nil {
					return err
				}
				srv := remoteio.NewServer(fs, []byte("key"))
				srv.Mode = wire.ModeSecure
				addr, err := srv.Listen("127.0.0.1:0")
				if err != nil {
					return err
				}
				defer srv.Close()
				c, err := remoteio.DialMode(addr, []byte("key"), wire.ModeSecure)
				if err != nil {
					return err
				}
				defer c.Close()
				if _, err := c.Read("/in", 0, 64); err != nil {
					return err
				}
				srv.ExpireSessionKeys()
				_, err = c.Read("/in", 0, 64)
				return err
			}},
	}
}

// FaultSweep runs the whole conformance matrix: every fault class at
// three or more sites, each simulation cell twice for byte-stable
// traces.  A non-nil error means at least one cell misclassified an
// error, applied the wrong disposition, or produced a nondeterministic
// trace — all regressions.
func FaultSweep(seed int64) (*Report, error) {
	return faultSweep(seed, false)
}

// FaultSweepSmoke is the one-cell-per-class subset wired into `make
// check`: fast, but still crossing every error class and both live
// protocol stacks.
func FaultSweepSmoke(seed int64) (*Report, error) {
	return faultSweep(seed, true)
}

func faultSweep(seed int64, smoke bool) (*Report, error) {
	rep := &Report{
		ID:      "fault-sweep",
		Title:   "fault-injection conformance: class x site -> scope, disposition",
		Headers: []string{"class", "site", "expect", "observed", "ok"},
	}
	if smoke {
		rep.ID = "fault-smoke"
	}
	hash := fnv.New64a()
	failures := 0
	sites := map[faultinject.Class]map[string]bool{}
	mark := func(class faultinject.Class, site string) {
		if sites[class] == nil {
			sites[class] = map[string]bool{}
		}
		sites[class][site] = true
	}
	seen := map[faultinject.Class]bool{}

	for _, c := range simCells() {
		if smoke && seen[c.class] {
			continue
		}
		seen[c.class] = true
		trace1, err := c.runSim(seed, nil, 0)
		observed := lastLine(trace1)
		if err == nil {
			// Determinism: the identical cell must reproduce the
			// identical trace, byte for byte.
			trace2, err2 := c.runSim(seed, nil, 0)
			if err2 != nil {
				err = fmt.Errorf("second run: %v", err2)
			} else if trace1 != trace2 {
				err = fmt.Errorf("nondeterministic trace")
			}
		}
		if err == nil {
			// Parallel equivalence: the sharded engine must reproduce
			// the serial trace, byte for byte.
			trace3, err3 := c.runSim(seed, nil, 4)
			if err3 != nil {
				err = fmt.Errorf("parallel run: %v", err3)
			} else if trace1 != trace3 {
				err = fmt.Errorf("parallel engine diverged from serial trace")
			}
		}
		ok := "ok"
		if err != nil {
			ok = "FAIL: " + err.Error()
			failures++
		} else {
			mark(c.class, c.site)
		}
		hash.Write([]byte(trace1))
		rep.AddRow(string(c.class), c.site, c.expect.String(), observed, ok)
	}
	for _, c := range fedCells() {
		if smoke && seen[c.class] {
			continue
		}
		seen[c.class] = true
		trace1, err := c.runFed(seed, nil, 0)
		observed := lastLine(trace1)
		if err == nil {
			trace2, err2 := c.runFed(seed, nil, 0)
			if err2 != nil {
				err = fmt.Errorf("second run: %v", err2)
			} else if trace1 != trace2 {
				err = fmt.Errorf("nondeterministic trace")
			}
		}
		if err == nil {
			trace3, err3 := c.runFed(seed, nil, 4)
			if err3 != nil {
				err = fmt.Errorf("parallel run: %v", err3)
			} else if trace1 != trace3 {
				err = fmt.Errorf("parallel engine diverged from serial trace")
			}
		}
		ok := "ok"
		if err != nil {
			ok = "FAIL: " + err.Error()
			failures++
		} else {
			mark(c.class, c.site)
		}
		hash.Write([]byte(trace1))
		rep.AddRow(string(c.class), c.site, c.expect.String(), observed, ok)
	}
	for _, c := range connCells() {
		if smoke && seen[c.class] {
			continue
		}
		seen[c.class] = true
		trace, err := c.runConn()
		ok := "ok"
		if err != nil {
			ok = "FAIL: " + err.Error()
			failures++
		} else {
			mark(c.class, c.site)
		}
		hash.Write([]byte(trace))
		rep.AddRow(string(c.class), c.site, c.expect().String(), lastLine(trace), ok)
	}

	rep.AddNote("trace hash (seed %d): %016x", seed, hash.Sum64())
	if !smoke {
		for _, class := range faultinject.Classes {
			if n := len(sites[class]); n < 3 {
				failures++
				rep.AddNote("COVERAGE: class %s passed at %d sites, need >= 3", class, n)
			}
		}
	}
	if failures > 0 {
		rep.AddNote("%d failing cell(s)", failures)
		return rep, fmt.Errorf("fault sweep: %d failing cell(s)", failures)
	}
	rep.AddNote("every class conformed at every site; simulation traces byte-stable across reruns")
	return rep, nil
}

// lastLine returns the final line of a trace — the outcome summary.
func lastLine(s string) string {
	if i := strings.LastIndexByte(strings.TrimRight(s, "\n"), '\n'); i >= 0 {
		return strings.TrimRight(s, "\n")[i+1:]
	}
	return s
}
