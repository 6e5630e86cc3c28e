package faultinject

import (
	"strings"
	"testing"
	"time"

	"github.com/errscope/grid/internal/daemon"
	"github.com/errscope/grid/internal/jvm"
	"github.com/errscope/grid/internal/pool"
	"github.com/errscope/grid/internal/scope"
)

// twoMachines is a pool with a preferred (big) and a fallback (small)
// machine; rank is by memory, so jobs land on "big" first.
func twoMachines() []daemon.MachineConfig {
	return []daemon.MachineConfig{
		{Name: "big", Memory: 4096, AdvertiseJava: true},
		{Name: "small", Memory: 1024, AdvertiseJava: true},
	}
}

// TestInjectMachineCrash: a scenario crash of the execution machine
// mid-job behaves exactly like startd.Crash called by hand — the
// shadow's result timeout discovers the silence and the job finishes
// on the fallback machine; the restart returns the machine to
// service.
func TestInjectMachineCrash(t *testing.T) {
	params := daemon.DefaultParams()
	params.ResultTimeout = 30 * time.Minute
	params.ChronicFailureThreshold = 1
	p := pool.New(pool.Config{Seed: 1, Params: params, Machines: twoMachines()})
	in := New(PoolTargets(p))

	sc, err := Parse("seed = 1\nfault class=crash site=machine:big at=5m0s for=2h0m0s\n")
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Apply(sc); err != nil {
		t.Fatal(err)
	}
	ids := p.SubmitJava(1, func(int) *jvm.Program { return jvm.WellBehaved(20 * time.Minute) })
	p.Run(24 * time.Hour)

	j := p.Schedd.Job(ids[0])
	if j.State != daemon.JobCompleted {
		t.Fatalf("state = %v, err = %v", j.State, j.FinalErr)
	}
	if len(j.Attempts) < 2 || j.Attempts[0].Machine != "big" || j.Attempts[0].LostContact == nil {
		t.Fatalf("attempts = %+v", j.Attempts)
	}
	if j.LastAttempt().Machine != "small" {
		t.Errorf("finished on %s", j.LastAttempt().Machine)
	}
	// The job finishes before the restart fires; run the clock past
	// it and the machine must return to service.
	p.Engine.RunFor(3 * time.Hour)
	if p.Startds[0].Crashed() {
		t.Error("machine still down after the restart event")
	}
	log := strings.Join(in.Log(), "\n")
	if !strings.Contains(log, "5m0s crash machine:big") || !strings.Contains(log, "2h5m0s restart machine:big") {
		t.Errorf("injector log:\n%s", log)
	}
}

// TestInjectMatchmakerPartition: a "crashed" matchmaker is a
// partition window — no ads in, no notifications out.  The pool
// stalls for the window and recovers on its own once the daemon is
// back, because every party retries on its own clock.
func TestInjectMatchmakerPartition(t *testing.T) {
	params := daemon.DefaultParams()
	p := pool.New(pool.Config{Seed: 1, Params: params, Machines: twoMachines()})
	in := New(PoolTargets(p))

	if err := in.Apply(Scenario{Seed: 1, Faults: []Fault{
		{Class: ClassCrash, Site: "actor:" + daemon.MatchmakerName, At: time.Millisecond, For: 30 * time.Minute},
	}}); err != nil {
		t.Fatal(err)
	}
	ids := p.SubmitJava(1, func(int) *jvm.Program { return jvm.WellBehaved(time.Minute) })
	p.Run(24 * time.Hour)

	j := p.Schedd.Job(ids[0])
	if j.State != daemon.JobCompleted {
		t.Fatalf("state = %v, err = %v", j.State, j.FinalErr)
	}
	// The job could not have been matched before the partition
	// healed at t=30m.
	if done := p.Engine.Now(); done < 0 || time.Duration(done) < 30*time.Minute {
		t.Errorf("completed at %s, inside the partition window", done)
	}
	if p.Bus.Lost() == 0 {
		t.Error("partition dropped no messages")
	}
}

// TestInjectMsgDrop: losing the first claim-request exercises the
// schedd's claim timeout; the next negotiation cycle retries and the
// job completes.
func TestInjectMsgDrop(t *testing.T) {
	params := daemon.DefaultParams()
	p := pool.New(pool.Config{Seed: 1, Params: params, Machines: twoMachines()[:1]})
	in := New(PoolTargets(p))

	if err := in.Apply(Scenario{Seed: 1, Faults: []Fault{
		{Class: ClassMsgDrop, Site: "kind:claim-request", Count: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	ids := p.SubmitJava(1, func(int) *jvm.Program { return jvm.WellBehaved(time.Minute) })
	p.Run(24 * time.Hour)

	j := p.Schedd.Job(ids[0])
	if j.State != daemon.JobCompleted {
		t.Fatalf("state = %v, err = %v", j.State, j.FinalErr)
	}
	if p.Schedd.ClaimsFailed == 0 {
		t.Error("expected a timed-out claim from the dropped request")
	}
	if p.Bus.Lost() != 1 {
		t.Errorf("lost = %d, want 1", p.Bus.Lost())
	}
}

// TestInjectMsgDupAndDelay: duplicated and delayed advertisements are
// absorbed by the matchmaker's idempotent re-indexing; the pool's
// outcome is unaffected.
func TestInjectMsgDupAndDelay(t *testing.T) {
	params := daemon.DefaultParams()
	p := pool.New(pool.Config{Seed: 1, Params: params, Machines: twoMachines()})
	in := New(PoolTargets(p))

	if err := in.Apply(Scenario{Seed: 1, Faults: []Fault{
		{Class: ClassMsgDup, Site: "kind:advertise", Param: 2},
		{Class: ClassMsgDelay, Site: "kind:advertise", Param: 1500},
	}}); err != nil {
		t.Fatal(err)
	}
	ids := p.SubmitJava(1, func(int) *jvm.Program { return jvm.WellBehaved(time.Minute) })
	p.Run(24 * time.Hour)

	j := p.Schedd.Job(ids[0])
	if j.State != daemon.JobCompleted {
		t.Fatalf("state = %v, err = %v", j.State, j.FinalErr)
	}
	if p.Bus.Duplicated() == 0 {
		t.Error("no duplicates delivered")
	}
	if len(p.Schedd.Reports) != 1 {
		t.Errorf("reports = %d, want 1", len(p.Schedd.Reports))
	}
}

// TestInjectFSOffline: the submit file system goes dark for two
// hours; under a hard mount the shadow's capped backoff outlasts the
// outage and the job completes without user-visible damage.
func TestInjectFSOffline(t *testing.T) {
	params := daemon.DefaultParams()
	params.Mount.Kind = daemon.MountHard
	params.Mount.RetryInterval = time.Minute
	params.ResultTimeout = 0
	p := pool.New(pool.Config{Seed: 1, Params: params, Machines: twoMachines()[:1]})
	in := New(PoolTargets(p))

	if err := in.Apply(Scenario{Seed: 1, Faults: []Fault{
		{Class: ClassFSOffline, Site: "submit", At: time.Millisecond, For: 2 * time.Hour},
	}}); err != nil {
		t.Fatal(err)
	}
	ids := p.SubmitJava(1, func(int) *jvm.Program { return jvm.WellBehaved(time.Minute) })
	p.Run(24 * time.Hour)

	j := p.Schedd.Job(ids[0])
	if j.State != daemon.JobCompleted {
		t.Fatalf("state = %v, err = %v", j.State, j.FinalErr)
	}
	log := strings.Join(in.Log(), "\n")
	if !strings.Contains(log, "inject fs-offline submit") || !strings.Contains(log, "restore fs-offline submit") {
		t.Errorf("injector log:\n%s", log)
	}
}

// TestInjectFSStateFaults: the disk-full, permission, and
// corrupt-data classes change the file system exactly as specified
// and restore it after the window — a corrupt-data window disarms the
// corruptions no read has used up.
func TestInjectFSStateFaults(t *testing.T) {
	params := daemon.DefaultParams()
	p := pool.New(pool.Config{Seed: 1, Params: params, Machines: twoMachines()[:1]})
	fs := p.Schedd.SubmitFS
	for _, path := range []string{"/data/in", "/data/win"} {
		if err := fs.WriteFile(path, []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	in := New(PoolTargets(p))

	if err := in.Apply(Scenario{Seed: 1, Faults: []Fault{
		{Class: ClassDiskFull, Site: "submit", At: time.Minute, For: time.Hour},
		{Class: ClassPermission, Site: "submit", Path: "/data/in", At: time.Minute, For: time.Hour},
		{Class: ClassCorruptData, Site: "submit", Path: "/data/in", At: time.Minute, Count: 1},
		{Class: ClassCorruptData, Site: "submit", Path: "/data/win", At: time.Minute, For: time.Hour, Count: 3},
	}}); err != nil {
		t.Fatal(err)
	}

	p.Engine.RunFor(2 * time.Minute)
	if err := fs.WriteFile("/data/other", make([]byte, 4096)); err == nil {
		t.Error("disk-full: write succeeded under clamped quota")
	} else if se, _ := scope.AsError(err); se == nil || se.Code != "DiskFull" {
		t.Errorf("disk-full: err = %v", err)
	}
	if err := fs.WriteFile("/data/in", []byte("new")); err == nil {
		t.Error("permission: write to read-only file succeeded")
	}
	got, err := fs.ReadFile("/data/in")
	if err != nil {
		t.Fatalf("corrupt read: %v", err)
	}
	if string(got) == "payload" {
		t.Error("corrupt-data: first read came back clean")
	}
	if got, _ := fs.ReadFile("/data/win"); string(got) == "payload" {
		t.Error("corrupt-data window: read inside the window came back clean")
	}

	p.Engine.RunFor(2 * time.Hour)
	if err := fs.WriteFile("/data/other", make([]byte, 4096)); err != nil {
		t.Errorf("quota not restored: %v", err)
	}
	if err := fs.WriteFile("/data/in", []byte("payload")); err != nil {
		t.Errorf("read-only not restored: %v", err)
	}
	if got, _ := fs.ReadFile("/data/in"); string(got) != "payload" {
		t.Errorf("later reads still corrupt: %q", got)
	}
	if got, _ := fs.ReadFile("/data/win"); string(got) != "payload" {
		t.Errorf("corrupt-data window closed but reads still corrupt: %q", got)
	}
}

// TestInjectHeapExhaustion: clamping the preferred machine's JVM
// heap produces the paper's execution-environment error — an
// escaping virtual-machine-scope OutOfMemoryError — and the schedd
// requeues to the healthy machine rather than blaming the job.
func TestInjectHeapExhaustion(t *testing.T) {
	params := daemon.DefaultParams()
	params.ChronicFailureThreshold = 1
	p := pool.New(pool.Config{Seed: 1, Params: params, Machines: twoMachines()})
	in := New(PoolTargets(p))

	if err := in.Apply(Scenario{Seed: 1, Faults: []Fault{
		{Class: ClassHeapExhaustion, Site: "machine:big", Param: 1 << 20},
	}}); err != nil {
		t.Fatal(err)
	}
	ids := p.SubmitJava(1, func(int) *jvm.Program { return jvm.MemoryHog(32 << 20) })
	p.Run(24 * time.Hour)

	j := p.Schedd.Job(ids[0])
	if j.State != daemon.JobCompleted {
		t.Fatalf("state = %v, err = %v", j.State, j.FinalErr)
	}
	if len(j.Attempts) < 2 || j.Attempts[0].Machine != "big" {
		t.Fatalf("attempts = %+v", j.Attempts)
	}
	firstErr := j.Attempts[0].True.Err()
	se, _ := scope.AsError(firstErr)
	if se == nil || se.Scope != scope.ScopeVirtualMachine || se.Kind != scope.KindEscaping {
		t.Errorf("first attempt error = %v", firstErr)
	}
	if j.LastAttempt().Machine != "small" {
		t.Errorf("finished on %s", j.LastAttempt().Machine)
	}
}

// TestInjectDeterminism: the same scenario against the same seed
// produces a byte-identical injector log and identical pool metrics —
// the property the whole conformance harness rests on.
func TestInjectDeterminism(t *testing.T) {
	sc, err := Parse(strings.Join([]string{
		"seed = 3",
		"fault class=crash site=machine:big at=5m0s for=1h0m0s",
		"fault class=msg-drop site=kind:claim-reply count=1",
		"fault class=fs-offline site=submit at=10m0s for=30m0s",
		"fault class=heap-exhaustion site=machine:small at=1s for=6h0m0s param=1024",
		"",
	}, "\n"))
	if err != nil {
		t.Fatal(err)
	}
	run := func() (string, string) {
		params := daemon.DefaultParams()
		params.ResultTimeout = 30 * time.Minute
		params.Mount.Kind = daemon.MountHard
		params.Mount.RetryInterval = time.Minute
		p := pool.New(pool.Config{Seed: sc.Seed, Params: params, Machines: twoMachines()})
		in := New(PoolTargets(p))
		if err := in.Apply(sc); err != nil {
			t.Fatal(err)
		}
		p.SubmitJava(3, func(int) *jvm.Program { return jvm.WellBehaved(10 * time.Minute) })
		p.Run(48 * time.Hour)
		return strings.Join(in.Log(), "\n"), p.Metrics().String()
	}
	log1, met1 := run()
	log2, met2 := run()
	if log1 != log2 {
		t.Errorf("injector logs differ:\n%s\n---\n%s", log1, log2)
	}
	if met1 != met2 {
		t.Errorf("metrics differ:\n%s\n%s", met1, met2)
	}
	if log1 == "" {
		t.Error("empty injector log")
	}
}

// TestInjectApplyErrors: invalid scenarios are rejected whole, with
// nothing armed.
func TestInjectApplyErrors(t *testing.T) {
	params := daemon.DefaultParams()
	p := pool.New(pool.Config{Seed: 1, Params: params, Machines: twoMachines()})
	in := New(PoolTargets(p))
	cases := []struct {
		name string
		f    Fault
		want string
	}{
		{"conn class", Fault{Class: ClassConnReset, Site: "chirp"}, "Proxy"},
		{"unknown machine", Fault{Class: ClassCrash, Site: "machine:nope"}, "no machine"},
		{"bad crash site", Fault{Class: ClassCrash, Site: "submit"}, "crash site"},
		{"unknown fs", Fault{Class: ClassFSOffline, Site: "scratch:big"}, "no file system"},
		{"pathless permission", Fault{Class: ClassPermission, Site: "submit"}, "needs a path"},
		{"bad msg site", Fault{Class: ClassMsgDrop, Site: "everything"}, "message site"},
		{"bad jvm site", Fault{Class: ClassHeapExhaustion, Site: "actor:big"}, "jvm site"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := in.Apply(Scenario{Seed: 1, Faults: []Fault{c.f}})
			if err == nil {
				t.Fatalf("Apply accepted %+v", c.f)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
	if len(in.Log()) != 0 {
		t.Errorf("rejected scenarios left a log: %v", in.Log())
	}
}
