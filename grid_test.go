package grid

import (
	"errors"
	"testing"
	"time"

	"github.com/errscope/grid/internal/jvm"
)

// TestFacadePoolLifecycle exercises the public API end to end the way
// README's quickstart does.
func TestFacadePoolLifecycle(t *testing.T) {
	p := NewPool(PoolConfig{
		Seed:     1,
		Params:   DefaultParams(),
		Machines: UniformMachines(4, 2048),
	})
	if err := p.Schedd.SubmitFS.WriteFile("/home/alice/Main.class", []byte("bytes")); err != nil {
		t.Fatal(err)
	}
	id := p.Schedd.Submit(&Job{
		Owner:      "alice",
		Ad:         NewJavaJobAd("alice", 128),
		Program:    jvm.WellBehaved(30 * time.Minute),
		Executable: "/home/alice/Main.class",
	})
	p.Run(24 * time.Hour)
	j := p.Schedd.Job(id)
	if !j.State.Terminal() {
		t.Fatalf("state = %v", j.State)
	}
	m := p.Metrics()
	if m.Completed != 1 || m.IncidentalLeaks != 0 {
		t.Errorf("metrics = %s", m)
	}
}

func TestFacadeScopeAPI(t *testing.T) {
	err := NewError(ScopeJob, "CorruptProgramImageError", "bad magic")
	if Dispose(err) != DispositionUnexecutable {
		t.Error("job scope must be unexecutable")
	}
	esc := EscapeError(ScopeProcess, "RPCFailure", errors.New("tcp reset"))
	if Dispose(esc) != DispositionRequeue {
		t.Error("process scope must requeue")
	}
	if Dispose(nil) != DispositionComplete {
		t.Error("nil disposes complete")
	}
}

func TestFacadeClassAdAPI(t *testing.T) {
	job, err := ParseAd(`[ Requirements = target.Memory >= 512; Rank = target.Memory ]`)
	if err != nil {
		t.Fatal(err)
	}
	machine := NewAd()
	machine.SetInt("Memory", 2048)
	if !MatchAds(job, machine) {
		t.Error("should match")
	}
	small := NewAd()
	small.SetInt("Memory", 128)
	if MatchAds(job, small) {
		t.Error("should not match")
	}
}

func TestFacadeFigures(t *testing.T) {
	if r := Figure1(); len(r.Rows) == 0 {
		t.Error("figure1 empty")
	}
	if r, rows := Figure4(); len(r.Rows) != 7 || len(rows) != 7 {
		t.Error("figure4 wrong shape")
	}
	if r := Principles(); len(r.Rows) != 4 {
		t.Error("principles wrong shape")
	}
}

func TestFacadeSupervisor(t *testing.T) {
	p := NewPool(PoolConfig{Seed: 2, Params: DefaultParams(),
		Machines: UniformMachines(2, 2048)})
	sup := NewSupervisor(p)
	defer sup.Close()
	tr := sup.Submit(SupervisedSpec{
		Name: "x",
		Program: func(path string) *Program {
			return &Program{Class: "M", Steps: []jvm.Step{
				jvm.Compute{Duration: time.Minute},
				jvm.IOWrite{Path: path, Data: []byte("ok")},
			}}
		},
		OutputPath: "/out",
	})
	p.Run(12 * time.Hour)
	if tr.Status.String() != "valid" {
		t.Errorf("status = %v (%v)", tr.Status, tr.Err)
	}
}

func TestFacadeWorkflow(t *testing.T) {
	sub, err := ParseSubmitFile("owner = a\nsim_compute = 5m\nqueue 2\n")
	if err != nil || len(sub.Jobs) != 2 {
		t.Fatalf("submit: %v", err)
	}
	d, err := ParseDAG("JOB X x.sub\nJOB Y x.sub\nPARENT X CHILD Y\n",
		func(string) (string, error) { return "owner = a\nsim_compute = 5m\nqueue\n", nil })
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(PoolConfig{Seed: 3, Params: DefaultParams(),
		Machines: UniformMachines(2, 2048)})
	r, err := StartDAG(d, p)
	if err != nil {
		t.Fatal(err)
	}
	p.Run(12 * time.Hour)
	if !r.Done() || r.Failed() {
		t.Errorf("done=%v failed=%v", r.Done(), r.Failed())
	}
	// An empty DAG built by hand validates the builder path too.
	d2 := NewDAG()
	d2.AddJob("solo", func() *Job {
		return &Job{Owner: "a", Ad: NewJavaJobAd("a", 128),
			Program: &Program{Class: "M"}}
	})
	if _, err := StartDAG(d2, p); err != nil {
		t.Errorf("solo dag: %v", err)
	}
}

func TestFacadeFigure2And3(t *testing.T) {
	if r, err := Figure2(); err != nil || len(r.Rows) == 0 {
		t.Errorf("figure2: %v", err)
	}
	if r := Figure3(); len(r.Rows) != 6 {
		t.Error("figure3 wrong shape")
	}
}

func TestFacadeLiveRuntime(t *testing.T) {
	rt := NewLiveRuntime(0)
	defer rt.Close()
	ran := make(chan struct{})
	rt.After(time.Millisecond, func() { close(ran) })
	select {
	case <-ran:
	case <-time.After(2 * time.Second):
		t.Fatal("live timer never fired")
	}
}
