package wrapper

import (
	"testing"
	"time"

	"github.com/errscope/grid/internal/javaio"
	"github.com/errscope/grid/internal/jvm"
	"github.com/errscope/grid/internal/scope"
	"github.com/errscope/grid/internal/vfs"
)

func runThrough(t *testing.T, m *jvm.Machine, prog *jvm.Program, io jvm.FileOps) scope.Result {
	t.Helper()
	scratch := vfs.New()
	w := &Wrapper{}
	w.Run(m, prog, io, scratch)
	return ReadResult(scratch)
}

func TestCleanExitThroughResultFile(t *testing.T) {
	res := runThrough(t, jvm.New(jvm.Config{}), jvm.WellBehaved(time.Millisecond), nil)
	if res.Status != scope.StatusExited || res.ExitCode != 0 {
		t.Fatalf("res = %+v", res)
	}
	if err := res.Err(); err != nil {
		t.Errorf("Err = %v", err)
	}
}

func TestSystemExitThroughResultFile(t *testing.T) {
	res := runThrough(t, jvm.New(jvm.Config{}), jvm.ExitWith(42, 0), nil)
	if res.Status != scope.StatusExited || res.ExitCode != 42 {
		t.Fatalf("res = %+v", res)
	}
	// A nonzero exit is a program result (explicit, program scope).
	se, _ := scope.AsError(res.Err())
	if se == nil || se.Scope != scope.ScopeProgram {
		t.Errorf("err = %v", res.Err())
	}
}

func TestProgramExceptionIsProgramResult(t *testing.T) {
	res := runThrough(t, jvm.New(jvm.Config{}), jvm.NullPointer(), nil)
	if res.Status != scope.StatusException || res.Exception != "NullPointerException" {
		t.Fatalf("res = %+v", res)
	}
	if res.Scope != scope.ScopeProgram {
		t.Errorf("scope = %v", res.Scope)
	}
	if scope.DisposeError(res.Err()) != scope.DispositionComplete {
		t.Error("program exception must complete the job")
	}
}

func TestEnvironmentalErrorsEscapeWithScope(t *testing.T) {
	cases := []struct {
		name      string
		m         *jvm.Machine
		prog      *jvm.Program
		wantScope scope.Scope
		wantDisp  scope.Disposition
	}{
		{"OOM", jvm.New(jvm.Config{HeapLimit: 1024}), jvm.MemoryHog(1 << 20), scope.ScopeVirtualMachine, scope.DispositionRequeue},
		{"bad library", jvm.New(jvm.Config{BadLibraryPath: true}), jvm.WellBehaved(0), scope.ScopeRemoteResource, scope.DispositionRequeue},
		{"corrupt image", jvm.New(jvm.Config{}), jvm.CorruptImage(), scope.ScopeJob, scope.DispositionUnexecutable},
	}
	for _, c := range cases {
		res := runThrough(t, c.m, c.prog, nil)
		if res.Status != scope.StatusEscape {
			t.Errorf("%s: status = %v", c.name, res.Status)
			continue
		}
		if res.Scope != c.wantScope {
			t.Errorf("%s: scope = %v, want %v", c.name, res.Scope, c.wantScope)
		}
		if d := scope.DisposeError(res.Err()); d != c.wantDisp {
			t.Errorf("%s: disposition = %v, want %v", c.name, d, c.wantDisp)
		}
	}
}

func TestBrokenJVMProducesNoResultFile(t *testing.T) {
	scratch := vfs.New()
	w := &Wrapper{}
	exec := w.Run(jvm.New(jvm.Config{Broken: true}), jvm.WellBehaved(0), nil, scratch)
	if exec.ExitCode != 1 {
		t.Errorf("exit = %d", exec.ExitCode)
	}
	res := ReadResult(scratch)
	if res.Status != scope.StatusNoResult {
		t.Fatalf("res = %+v", res)
	}
	se, _ := scope.AsError(res.Err())
	if se == nil || se.Scope != scope.ScopeRemoteResource || se.Kind != scope.KindEscaping {
		t.Errorf("no-result error = %v", res.Err())
	}
}

func TestCorruptResultFileIsNoResult(t *testing.T) {
	scratch := vfs.New()
	scratch.WriteFile(DefaultResultPath, []byte("garbage ="))
	res := ReadResult(scratch)
	if res.Status != scope.StatusNoResult {
		t.Fatalf("res = %+v", res)
	}
}

func TestIOEscapeReachesResultFile(t *testing.T) {
	// Full inner pipeline: program -> I/O library over an offline
	// file system -> escaping Java Error -> wrapper -> result file.
	fs := vfs.New()
	fs.WriteFile("/in", []byte("data"))
	fs.SetOffline(true)
	lib := javaio.New(&javaio.VFSTransport{FS: fs})
	res := runThrough(t, jvm.New(jvm.Config{}), jvm.ReadsInput("/in", 4), lib)
	if res.Status != scope.StatusEscape {
		t.Fatalf("res = %+v", res)
	}
	if res.Scope != scope.ScopeLocalResource {
		t.Errorf("scope = %v", res.Scope)
	}
	if res.Exception != javaio.ErrHomeFSOffline {
		t.Errorf("exception = %q", res.Exception)
	}
	if scope.DisposeError(res.Err()) != scope.DispositionRequeue {
		t.Error("local-resource escape must requeue")
	}
}

func TestIOFileNotFoundIsProgramResult(t *testing.T) {
	fs := vfs.New()
	lib := javaio.New(&javaio.VFSTransport{FS: fs})
	res := runThrough(t, jvm.New(jvm.Config{}), jvm.ReadsInput("/missing", 4), lib)
	if res.Status != scope.StatusException || res.Exception != javaio.ExcFileNotFound {
		t.Fatalf("res = %+v", res)
	}
	if scope.DisposeError(res.Err()) != scope.DispositionComplete {
		t.Error("FileNotFoundException is a program result the user must see")
	}
}

func TestGenericModeTurnsEnvironmentIntoProgramResult(t *testing.T) {
	// The before picture of Section 2.3: with the generic library,
	// an offline file system comes back to the user as a job result.
	fs := vfs.New()
	fs.WriteFile("/in", []byte("data"))
	fs.SetOffline(true)
	lib := javaio.NewGeneric(&javaio.VFSTransport{FS: fs})
	res := runThrough(t, jvm.New(jvm.Config{}), jvm.ReadsInput("/in", 4), lib)
	if res.Status != scope.StatusException {
		t.Fatalf("res = %+v", res)
	}
	if scope.DisposeError(res.Err()) != scope.DispositionComplete {
		t.Error("generic mode wrongly completes the job — the bug the paper describes")
	}
}

func TestRawExitInterpretationLosesScope(t *testing.T) {
	// Figure 4: without the wrapper, OOM and null pointer are both
	// "the program exited 1".
	oom := jvm.New(jvm.Config{HeapLimit: 1024}).Execute(jvm.MemoryHog(1<<20), nil)
	npe := jvm.New(jvm.Config{}).Execute(jvm.NullPointer(), nil)
	rawOOM := RawExitInterpretation(oom)
	rawNPE := RawExitInterpretation(npe)
	if rawOOM != rawNPE {
		t.Fatalf("raw interpretations differ: %+v vs %+v", rawOOM, rawNPE)
	}
	if scope.DisposeError(rawOOM.Err()) != scope.DispositionComplete {
		t.Error("raw interpretation wrongly completes an OOM job")
	}
	// With the wrapper they are distinguishable.
	w := &Wrapper{}
	if w.Classify(oom).Scope == w.Classify(npe).Scope {
		t.Error("wrapper should distinguish the scopes")
	}
}

func TestEscapingProgramScopeWidensToProcess(t *testing.T) {
	// A Thrown marked escaping but classified program scope cannot
	// be a program result; the wrapper widens it.
	w := &Wrapper{}
	exec := &jvm.Execution{ExitCode: 1, Thrown: &jvm.Thrown{
		Name: "SomeAnonymousError", Scope: scope.ScopeProgram, Escaping: true,
	}}
	res := w.Classify(exec)
	if res.Status != scope.StatusEscape || res.Scope != scope.ScopeProcess {
		t.Fatalf("res = %+v", res)
	}
}
