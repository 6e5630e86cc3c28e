package daemon

import (
	"testing"
	"time"

	"github.com/errscope/grid/internal/jvm"
	"github.com/errscope/grid/internal/scope"
	"github.com/errscope/grid/internal/sim"
)

// testPool assembles a matchmaker, one schedd, and the given machines
// on a fresh engine.
func testPool(t *testing.T, params Params, machines ...MachineConfig) (*sim.Engine, *sim.Bus, *Schedd, *Matchmaker, []*Startd) {
	t.Helper()
	eng := sim.New(1)
	bus := sim.NewBus(eng, 5*time.Millisecond)
	mm := NewMatchmaker(bus, params)
	schedd := NewSchedd(bus, params, "schedd")
	var startds []*Startd
	for _, mc := range machines {
		startds = append(startds, NewStartd(bus, params, mc))
	}
	return eng, bus, schedd, mm, startds
}

func goodMachine(name string) MachineConfig {
	return MachineConfig{Name: name, Memory: 2048, AdvertiseJava: true}
}

func submitJavaJob(s *Schedd, prog *jvm.Program) JobID {
	job := &Job{
		Owner:      "alice",
		Ad:         NewJavaJobAd("alice", 128),
		Program:    prog,
		Executable: "/home/alice/Main.class",
	}
	s.SubmitFS.WriteFile("/home/alice/Main.class", []byte("\xca\xfe\xba\xbe class bytes"))
	return s.Submit(job)
}

// runUntilDone drives the engine until all jobs are terminal or the
// deadline passes.
func runUntilDone(t *testing.T, eng *sim.Engine, s *Schedd, limit time.Duration) {
	t.Helper()
	deadline := eng.Now().Add(limit)
	for eng.Now() < deadline && !s.AllTerminal() {
		eng.RunFor(30 * time.Second)
	}
}

// TestFigure1KernelSingleJob exercises the complete kernel protocol
// chain of Figure 1: advertise -> negotiate -> match-notify -> claim
// -> activate -> shadow/starter -> result -> disposition.
func TestFigure1KernelSingleJob(t *testing.T) {
	eng, _, schedd, mm, startds := testPool(t, DefaultParams(), goodMachine("m1"))
	id := submitJavaJob(schedd, jvm.WellBehaved(5*time.Minute))
	runUntilDone(t, eng, schedd, 2*time.Hour)

	j := schedd.Job(id)
	if j.State != JobCompleted {
		t.Fatalf("state = %v, err = %v", j.State, j.FinalErr)
	}
	if len(j.Attempts) != 1 {
		t.Fatalf("attempts = %d", len(j.Attempts))
	}
	att := j.Attempts[0]
	if att.Machine != "m1" || att.CPU != 5*time.Minute {
		t.Errorf("attempt = %+v", att)
	}
	if att.Reported.Status != scope.StatusExited || att.Reported.ExitCode != 0 {
		t.Errorf("reported = %+v", att.Reported)
	}
	if mm.Cycles == 0 || mm.MatchesMade != 1 {
		t.Errorf("mm cycles=%d matches=%d", mm.Cycles, mm.MatchesMade)
	}
	if startds[0].JobsRun != 1 || startds[0].CPUDelivered != 5*time.Minute {
		t.Errorf("startd: %+v", startds[0])
	}
	if startds[0].State() != StartdUnclaimed {
		t.Error("machine should be unclaimed after the job")
	}
	if len(schedd.Reports()) != 1 || schedd.Reports()[0].IncidentalLeak {
		t.Errorf("reports = %+v", schedd.Reports())
	}
}

// TestFigure3ScopeRouting injects one error per scope tier and
// verifies each reaches its managing program with the disposition the
// paper specifies.
func TestFigure3ScopeRouting(t *testing.T) {
	t.Run("program scope completes", func(t *testing.T) {
		eng, _, schedd, _, _ := testPool(t, DefaultParams(), goodMachine("m1"))
		id := submitJavaJob(schedd, jvm.NullPointer())
		runUntilDone(t, eng, schedd, 2*time.Hour)
		j := schedd.Job(id)
		if j.State != JobCompleted {
			t.Fatalf("state = %v", j.State)
		}
		if j.Attempts[0].Reported.Exception != "NullPointerException" {
			t.Errorf("reported = %+v", j.Attempts[0].Reported)
		}
	})

	t.Run("job scope is unexecutable", func(t *testing.T) {
		eng, _, schedd, _, _ := testPool(t, DefaultParams(), goodMachine("m1"))
		id := submitJavaJob(schedd, jvm.CorruptImage())
		runUntilDone(t, eng, schedd, 2*time.Hour)
		j := schedd.Job(id)
		if j.State != JobUnexecutable {
			t.Fatalf("state = %v", j.State)
		}
		if scope.ScopeOf(j.FinalErr) != scope.ScopeJob {
			t.Errorf("final err = %v", j.FinalErr)
		}
		if len(j.Attempts) != 1 {
			t.Errorf("a job-scope error must not be retried: %d attempts", len(j.Attempts))
		}
	})

	t.Run("missing executable is job scope via shadow", func(t *testing.T) {
		eng, _, schedd, _, _ := testPool(t, DefaultParams(), goodMachine("m1"))
		job := &Job{Owner: "alice", Ad: NewJavaJobAd("alice", 128),
			Program: jvm.WellBehaved(time.Minute), Executable: "/no/such/file"}
		id := schedd.Submit(job)
		runUntilDone(t, eng, schedd, 2*time.Hour)
		j := schedd.Job(id)
		if j.State != JobUnexecutable {
			t.Fatalf("state = %v, err = %v", j.State, j.FinalErr)
		}
		se, _ := scope.AsError(j.FinalErr)
		if se == nil || se.Code != "MissingInputFileError" || se.Scope != scope.ScopeJob {
			t.Errorf("final err = %v", j.FinalErr)
		}
	})

	t.Run("remote resource scope requeues to another machine", func(t *testing.T) {
		// Without avoidance the high-ranked failing machine would
		// re-attract the job forever (the Section 5 black hole);
		// one strike steers the retry elsewhere.
		params := DefaultParams()
		params.ChronicFailureThreshold = 1
		bad := MachineConfig{Name: "bad", Memory: 4096, AdvertiseJava: true,
			JVM: jvm.Config{BadLibraryPath: true}}
		good := MachineConfig{Name: "good", Memory: 1024, AdvertiseJava: true}
		eng, _, schedd, _, _ := testPool(t, params, bad, good)
		// Rank prefers memory, so the bad machine is matched first.
		id := submitJavaJob(schedd, jvm.WellBehaved(time.Minute))
		runUntilDone(t, eng, schedd, 6*time.Hour)
		j := schedd.Job(id)
		if j.State != JobCompleted {
			t.Fatalf("state = %v, err = %v", j.State, j.FinalErr)
		}
		if len(j.Attempts) < 2 {
			t.Fatalf("expected a failed attempt then success, got %d", len(j.Attempts))
		}
		first := j.Attempts[0]
		if first.Machine != "bad" {
			t.Errorf("first attempt at %s", first.Machine)
		}
		if first.True.Scope != scope.ScopeRemoteResource {
			t.Errorf("first attempt scope = %v", first.True.Scope)
		}
		last := j.LastAttempt()
		if last.Machine != "good" || last.Reported.Status != scope.StatusExited {
			t.Errorf("last attempt = %+v", last)
		}
		// The user never saw the remote-resource error.
		if len(schedd.Reports()) != 1 || schedd.Reports()[0].IncidentalLeak {
			t.Errorf("reports = %+v", schedd.Reports())
		}
	})

	t.Run("virtual machine scope requeues", func(t *testing.T) {
		params := DefaultParams()
		params.ChronicFailureThreshold = 1
		small := MachineConfig{Name: "small", Memory: 4096, AdvertiseJava: true,
			JVM: jvm.Config{HeapLimit: 1 << 20}}
		big := MachineConfig{Name: "big", Memory: 1024, AdvertiseJava: true,
			JVM: jvm.Config{HeapLimit: 256 << 20}}
		eng, _, schedd, _, _ := testPool(t, params, small, big)
		id := submitJavaJob(schedd, jvm.MemoryHog(16<<20))
		runUntilDone(t, eng, schedd, 6*time.Hour)
		j := schedd.Job(id)
		if j.State != JobCompleted {
			t.Fatalf("state = %v", j.State)
		}
		if j.Attempts[0].True.Scope != scope.ScopeVirtualMachine {
			t.Errorf("first attempt scope = %v", j.Attempts[0].True.Scope)
		}
	})

	t.Run("local resource scope requeues after soft timeout", func(t *testing.T) {
		params := DefaultParams()
		params.Mount = MountPolicy{Kind: MountSoft, SoftTimeout: 2 * time.Minute, RetryInterval: 20 * time.Second}
		eng, _, schedd, _, _ := testPool(t, params, goodMachine("m1"))
		id := submitJavaJob(schedd, jvm.WellBehaved(time.Minute))
		schedd.SubmitFS.SetOffline(true)
		// Restore the file system after 10 minutes of outage.
		eng.After(10*time.Minute, func() { schedd.SubmitFS.SetOffline(false) })
		runUntilDone(t, eng, schedd, 6*time.Hour)
		j := schedd.Job(id)
		if j.State != JobCompleted {
			t.Fatalf("state = %v, err = %v", j.State, j.FinalErr)
		}
		// At least one attempt must have failed at fetch with a
		// local-resource error.
		foundFetch := false
		for _, att := range j.Attempts {
			if att.FetchError != nil {
				foundFetch = true
				if scope.ScopeOf(att.FetchError) != scope.ScopeLocalResource {
					t.Errorf("fetch error scope = %v", scope.ScopeOf(att.FetchError))
				}
			}
		}
		if !foundFetch {
			t.Error("expected a fetch failure during the outage")
		}
	})
}

// TestNaiveModeLeaksIncidentalErrors reproduces Section 2.3: under
// the naive discipline, environmental failures return to the user as
// program results.
func TestNaiveModeLeaksIncidentalErrors(t *testing.T) {
	params := DefaultParams()
	params.Mode = ModeNaive
	bad := MachineConfig{Name: "bad", Memory: 4096, AdvertiseJava: true,
		JVM: jvm.Config{BadLibraryPath: true}}
	eng, _, schedd, _, _ := testPool(t, params, bad)
	id := submitJavaJob(schedd, jvm.WellBehaved(time.Minute))
	runUntilDone(t, eng, schedd, 2*time.Hour)

	j := schedd.Job(id)
	// The naive system declares the job complete: the JVM exited 1.
	if j.State != JobCompleted {
		t.Fatalf("state = %v", j.State)
	}
	if len(schedd.Reports()) != 1 {
		t.Fatalf("reports = %+v", schedd.Reports())
	}
	rep := schedd.Reports()[0]
	if !rep.IncidentalLeak {
		t.Error("the leak should be detected against ground truth")
	}
	if rep.Result.ExitCode != 1 {
		t.Errorf("user saw exit %d", rep.Result.ExitCode)
	}
	// The same scenario under the scoped discipline retries instead.
	params2 := DefaultParams()
	eng2, _, schedd2, _, _ := testPool(t, params2, bad)
	id2 := submitJavaJob(schedd2, jvm.WellBehaved(time.Minute))
	runUntilDone(t, eng2, schedd2, 2*time.Hour)
	j2 := schedd2.Job(id2)
	if j2.State == JobCompleted {
		t.Error("scoped mode must not complete on a remote-resource error")
	}
	_ = eng2
	_ = id2
}

// TestHeldAfterMaxAttempts verifies the requeue bound.
func TestHeldAfterMaxAttempts(t *testing.T) {
	params := DefaultParams()
	params.MaxAttempts = 3
	bad := MachineConfig{Name: "bad", Memory: 4096, AdvertiseJava: true,
		JVM: jvm.Config{BadLibraryPath: true}}
	eng, _, schedd, _, _ := testPool(t, params, bad)
	id := submitJavaJob(schedd, jvm.WellBehaved(time.Minute))
	runUntilDone(t, eng, schedd, 12*time.Hour)
	j := schedd.Job(id)
	if j.State != JobHeld {
		t.Fatalf("state = %v", j.State)
	}
	if len(j.Attempts) != 3 {
		t.Errorf("attempts = %d", len(j.Attempts))
	}
	se, _ := scope.AsError(j.FinalErr)
	if se == nil || se.Code != "AttemptsExhausted" {
		t.Errorf("final err = %v", j.FinalErr)
	}
}

// TestStartdSelfTest verifies the Section 5 fix: a self-testing
// startd with a broken Java declines to advertise the capability and
// never attracts Java jobs.
func TestStartdSelfTest(t *testing.T) {
	params := DefaultParams()
	broken := MachineConfig{Name: "broken", Memory: 4096, AdvertiseJava: true,
		SelfTest: true, JVM: jvm.Config{Broken: true}}
	good := MachineConfig{Name: "good", Memory: 1024, AdvertiseJava: true}
	eng, _, schedd, _, startds := testPool(t, params, broken, good)
	id := submitJavaJob(schedd, jvm.WellBehaved(time.Minute))
	runUntilDone(t, eng, schedd, 2*time.Hour)

	if !startds[0].SelfTestFail {
		t.Error("self-test should have failed")
	}
	j := schedd.Job(id)
	if j.State != JobCompleted || len(j.Attempts) != 1 || j.Attempts[0].Machine != "good" {
		t.Fatalf("job = %v attempts = %+v", j.State, j.Attempts)
	}
	if startds[0].JobsRun != 0 {
		t.Error("the broken machine must not run jobs")
	}
}

// TestChronicFailureAvoidance verifies the schedd-side complementary
// fix: after the threshold, the schedd declines matches to the
// failing machine.
func TestChronicFailureAvoidance(t *testing.T) {
	params := DefaultParams()
	params.ChronicFailureThreshold = 2
	bad := MachineConfig{Name: "bad", Memory: 4096, AdvertiseJava: true,
		JVM: jvm.Config{BadLibraryPath: true}}
	good := MachineConfig{Name: "good", Memory: 1024, AdvertiseJava: true}
	eng, _, schedd, _, _ := testPool(t, params, bad, good)
	// Several jobs, each ranking the bad machine first.
	var ids []JobID
	for i := 0; i < 5; i++ {
		ids = append(ids, submitJavaJob(schedd, jvm.WellBehaved(time.Minute)))
	}
	runUntilDone(t, eng, schedd, 24*time.Hour)
	for _, id := range ids {
		if st := schedd.Job(id).State; st != JobCompleted {
			t.Errorf("job %d state = %v", id, st)
		}
	}
	badAttempts := 0
	for _, j := range schedd.Jobs() {
		for _, att := range j.Attempts {
			if att.Machine == "bad" {
				badAttempts++
			}
		}
	}
	// Without avoidance every retry could revisit "bad"; with the
	// threshold it is capped near the threshold.
	if badAttempts > params.ChronicFailureThreshold+1 {
		t.Errorf("bad machine attracted %d attempts despite avoidance", badAttempts)
	}
	if schedd.MatchesDeclined == 0 {
		t.Error("expected declined matches")
	}
}

// TestAvoidanceRelaxesUnderStarvation: when every machine in the pool
// is chronically failing, avoidance must not starve the job forever —
// after ChronicRelaxCycles unmatchable negotiation cycles the schedd
// drops the constraint, the job retries chronic machines, exhausts
// MaxAttempts, and is held where the user can see it.
func TestAvoidanceRelaxesUnderStarvation(t *testing.T) {
	params := DefaultParams()
	params.ChronicFailureThreshold = 1
	params.MaxAttempts = 3
	broken := jvm.Config{BadLibraryPath: true}
	eng, _, schedd, _, _ := testPool(t, params,
		MachineConfig{Name: "m1", Memory: 2048, AdvertiseJava: true, JVM: broken},
		MachineConfig{Name: "m2", Memory: 1024, AdvertiseJava: true, JVM: broken})
	id := submitJavaJob(schedd, jvm.WellBehaved(time.Minute))
	runUntilDone(t, eng, schedd, 24*time.Hour)
	j := schedd.Job(id)
	if j.State != JobHeld {
		t.Fatalf("state = %v after %d attempts, want held; avoidance starved the job", j.State, len(j.Attempts))
	}
	if len(j.Attempts) != params.MaxAttempts {
		t.Errorf("attempts = %d, want %d", len(j.Attempts), params.MaxAttempts)
	}
	relaxed := false
	for _, e := range j.Events {
		if e.Kind == EventAvoidanceRelaxed {
			relaxed = true
		}
	}
	if !relaxed {
		t.Errorf("no %s event in the job log:\n%s", EventAvoidanceRelaxed, j.EventLog())
	}
	se, _ := scope.AsError(j.FinalErr)
	if se == nil || se.Scope != scope.ScopePool || se.Code != "AttemptsExhausted" {
		t.Errorf("final err = %v, want pool-scope AttemptsExhausted", j.FinalErr)
	}
}

// TestHardMountBlocksForever verifies the NFS hard-mount behaviour:
// the shadow hides the outage and the job simply waits.
func TestHardMountBlocksForever(t *testing.T) {
	params := DefaultParams()
	params.Mount = MountPolicy{Kind: MountHard, RetryInterval: time.Minute}
	eng, _, schedd, _, _ := testPool(t, params, goodMachine("m1"))
	id := submitJavaJob(schedd, jvm.WellBehaved(time.Minute))
	schedd.SubmitFS.SetOffline(true)
	eng.RunFor(8 * time.Hour)
	j := schedd.Job(id)
	if j.State != JobRunning {
		t.Fatalf("hard mount should keep waiting, state = %v", j.State)
	}
	// When the file system returns, the job completes.
	schedd.SubmitFS.SetOffline(false)
	runUntilDone(t, eng, schedd, 4*time.Hour)
	if j.State != JobCompleted {
		t.Fatalf("state after recovery = %v", j.State)
	}
}

// TestPerJobMountPolicy verifies that a job's declared tolerance
// overrides the pool default.
func TestPerJobMountPolicy(t *testing.T) {
	params := DefaultParams()
	params.Mount = MountPolicy{Kind: MountPerJob, SoftTimeout: time.Hour, RetryInterval: 30 * time.Second}
	eng, _, schedd, _, _ := testPool(t, params, goodMachine("m1"))
	ad := NewJavaJobAd("alice", 128)
	ad.SetInt("OutageTolerance", 120) // patience: 2 minutes
	job := &Job{Owner: "alice", Ad: ad, Program: jvm.WellBehaved(time.Minute),
		Executable: "/home/alice/Main.class"}
	schedd.SubmitFS.WriteFile("/home/alice/Main.class", []byte("bytes"))
	id := schedd.Submit(job)
	schedd.SubmitFS.SetOffline(true)
	eng.RunFor(30 * time.Minute)
	j := schedd.Job(id)
	// With only 2 minutes of patience the shadow must have given up
	// at least once (job requeued, not stuck waiting).
	gaveUp := false
	for _, att := range j.Attempts {
		if att.FetchError != nil {
			gaveUp = true
		}
	}
	if !gaveUp {
		t.Fatal("per-job tolerance should expose the outage quickly")
	}
}

// TestDeterministicKernel runs the same pool twice and requires
// identical traces.
func TestDeterministicKernel(t *testing.T) {
	run := func() []string {
		params := DefaultParams()
		eng := sim.New(7)
		bus := sim.NewBus(eng, 5*time.Millisecond)
		var trace []string
		bus.Trace = func(m sim.Message, delivered bool) {
			trace = append(trace, m.String())
		}
		NewMatchmaker(bus, params)
		schedd := NewSchedd(bus, params, "schedd")
		NewStartd(bus, params, goodMachine("m1"))
		NewStartd(bus, params, MachineConfig{Name: "m2", Memory: 512, AdvertiseJava: true})
		for i := 0; i < 4; i++ {
			submitJavaJob(schedd, jvm.WellBehaved(time.Duration(i+1)*time.Minute))
		}
		for eng.Now() < sim.Time(4*time.Hour) && !schedd.AllTerminal() {
			eng.RunFor(time.Minute)
		}
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %q vs %q", i, a[i], b[i])
		}
	}
}
