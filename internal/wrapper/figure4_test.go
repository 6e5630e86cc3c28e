package wrapper

import (
	"testing"
	"time"

	"github.com/errscope/grid/internal/jvm"
	"github.com/errscope/grid/internal/obs"
	"github.com/errscope/grid/internal/scope"
	"github.com/errscope/grid/internal/vfs"
)

// TestFigure4ExitCodeMatrix pins the whole Figure 4 table: the JVM
// exit code collapses every abnormal termination to 1, and only the
// wrapper's result file recovers the scope that distinguishes them.
func TestFigure4ExitCodeMatrix(t *testing.T) {
	cases := []struct {
		name       string
		m          *jvm.Machine
		prog       *jvm.Program
		wantExit   int
		wantStatus scope.ResultStatus
		wantScope  scope.Scope
	}{
		{"complete", jvm.New(jvm.Config{}), jvm.WellBehaved(time.Millisecond),
			0, scope.StatusExited, scope.ScopeNone},
		{"System.exit(3)", jvm.New(jvm.Config{}), jvm.ExitWith(3, 0),
			3, scope.StatusExited, scope.ScopeNone},
		{"uncaught exception", jvm.New(jvm.Config{}), jvm.NullPointer(),
			1, scope.StatusException, scope.ScopeProgram},
		{"out of memory", jvm.New(jvm.Config{HeapLimit: 1024}), jvm.MemoryHog(1 << 20),
			1, scope.StatusEscape, scope.ScopeVirtualMachine},
		{"bad library path", jvm.New(jvm.Config{BadLibraryPath: true}), jvm.WellBehaved(0),
			1, scope.StatusEscape, scope.ScopeRemoteResource},
		{"corrupt class image", jvm.New(jvm.Config{}), jvm.CorruptImage(),
			1, scope.StatusEscape, scope.ScopeJob},
		{"missing program image", jvm.New(jvm.Config{}), &jvm.Program{},
			1, scope.StatusEscape, scope.ScopeJob},
		{"broken installation", jvm.New(jvm.Config{Broken: true}), jvm.WellBehaved(0),
			1, scope.StatusNoResult, scope.ScopeNone},
	}
	abnormal := 0
	for _, c := range cases {
		scratch := vfs.New()
		w := &Wrapper{}
		exec := w.Run(c.m, c.prog, nil, scratch)
		if exec.ExitCode != c.wantExit {
			t.Errorf("%s: exit = %d, want %d", c.name, exec.ExitCode, c.wantExit)
		}
		if exec.ExitCode == 1 {
			abnormal++
		}
		res := ReadResult(scratch)
		if res.Status != c.wantStatus {
			t.Errorf("%s: status = %v, want %v", c.name, res.Status, c.wantStatus)
		}
		if res.Scope != c.wantScope {
			t.Errorf("%s: scope = %v, want %v", c.name, res.Scope, c.wantScope)
		}
	}
	if abnormal < 6 {
		t.Errorf("only %d rows share exit code 1; the matrix should show the information loss", abnormal)
	}
}

// TestWrapperTraceEmission checks the wrapper's two trace hops: the
// JVM origin event and the wrapper's classification.
func TestWrapperTraceEmission(t *testing.T) {
	run := func(m *jvm.Machine, prog *jvm.Program) []obs.Event {
		rec := obs.NewRecorder()
		w := &Wrapper{Trace: rec, TraceJob: 7,
			TraceNow: func() int64 { return 99 }}
		w.Run(m, prog, nil, vfs.New())
		return rec.Events()
	}

	// Clean completion emits nothing.
	if evs := run(jvm.New(jvm.Config{}), jvm.WellBehaved(0)); len(evs) != 0 {
		t.Errorf("clean run emitted %d events", len(evs))
	}

	// A program exception: origin (jvm, explicit) then classification
	// (wrapper, exception), tagged and timestamped.
	evs := run(jvm.New(jvm.Config{}), jvm.NullPointer())
	if len(evs) != 2 {
		t.Fatalf("NPE run emitted %d events, want 2", len(evs))
	}
	origin, class := evs[0], evs[1]
	if origin.Comp != "jvm" || origin.Code != "NullPointerException" || origin.EKind != "explicit" {
		t.Errorf("origin = %+v", origin)
	}
	if class.Comp != "wrapper" || class.EKind != "exception" || class.Scope != "program" {
		t.Errorf("classification = %+v", class)
	}
	for _, ev := range evs {
		if ev.Job != 7 || ev.T != 99 {
			t.Errorf("tagging: job=%d t=%d", ev.Job, ev.T)
		}
	}

	// An environmental escape: the origin is escaping and the wrapper
	// reports an escape at the widened scope.
	evs = run(jvm.New(jvm.Config{HeapLimit: 1024}), jvm.MemoryHog(1<<20))
	if len(evs) != 2 {
		t.Fatalf("OOM run emitted %d events, want 2", len(evs))
	}
	if evs[0].EKind != "escaping" || evs[0].Code != "OutOfMemoryError" {
		t.Errorf("OOM origin = %+v", evs[0])
	}
	if evs[1].EKind != "escape" || evs[1].Scope != "virtual-machine" {
		t.Errorf("OOM classification = %+v", evs[1])
	}

	// A JVM that cannot start emits only the origin; the wrapper never
	// ran, so there is no classification hop (and no result file).
	evs = run(jvm.New(jvm.Config{Broken: true}), jvm.WellBehaved(0))
	if len(evs) != 1 {
		t.Fatalf("broken-JVM run emitted %d events, want 1", len(evs))
	}
	if evs[0].Comp != "jvm" || evs[0].Code != "JVMStartError" || evs[0].EKind != "escaping" {
		t.Errorf("broken-JVM origin = %+v", evs[0])
	}
}

// TestResultWriteFailureYieldsNoResult: when the wrapper cannot write
// its result file, the starter must read the failure as NoResult —
// the environment failed before the wrapper could report.
func TestResultWriteFailureYieldsNoResult(t *testing.T) {
	scratch := vfs.New()
	if err := scratch.WriteFile(DefaultResultPath, []byte("stale =")); err != nil {
		t.Fatal(err)
	}
	scratch.SetReadOnly(DefaultResultPath, true)
	w := &Wrapper{}
	w.Run(jvm.New(jvm.Config{}), jvm.NullPointer(), nil, scratch)
	res := ReadResult(scratch)
	if res.Status != scope.StatusNoResult {
		t.Fatalf("res = %+v, want no-result", res)
	}
	se, _ := scope.AsError(res.Err())
	if se == nil || se.Scope != scope.ScopeRemoteResource {
		t.Errorf("no-result error = %v", res.Err())
	}
}
