// Package wrapper implements the program wrapper of Section 4 of the
// paper.  The starter causes the JVM to invoke the wrapper with the
// actual program as an argument.  The wrapper locates the program,
// attempts to execute it, and catches any exceptions it may throw.
// It examines the exception type and then produces a result file
// describing the program result and the scope of any errors
// discovered.  The starter examines this result file and ignores the
// JVM exit code entirely.
//
// Without the wrapper, the JVM exit code is the starter's only
// signal, and Figure 4 shows that it cannot distinguish a null
// pointer (program scope) from an offline file system (local-resource
// scope): both are exit code 1.  RawExitInterpretation preserves that
// flawed reading for the before/after experiments.
package wrapper

import (
	"time"

	"github.com/errscope/grid/internal/jvm"
	"github.com/errscope/grid/internal/obs"
	"github.com/errscope/grid/internal/scope"
	"github.com/errscope/grid/internal/vfs"
)

// DefaultResultPath is where the wrapper leaves its result file in
// the starter's scratch directory.
const DefaultResultPath = "/scratch/.condor_java_result"

// Wrapper runs a program inside a JVM and reports through a result
// file.
type Wrapper struct {
	// Trace, when non-nil and enabled, receives the error's origin
	// event (the JVM's thrown exception) and the wrapper's
	// classification of it — the first two hops of every error span.
	// TraceJob tags the events; TraceNow supplies timestamps (nil
	// falls back to zero, for callers outside any clock).
	Trace    obs.Tracer
	TraceJob int64
	TraceNow func() int64
}

func (w *Wrapper) traceNow() int64 {
	if w.TraceNow != nil {
		return w.TraceNow()
	}
	return 0
}

// Run executes prog on machine m with the I/O service io, writing the
// wrapper's result file into scratch.  The returned Execution is what
// the starter observes of the JVM process (exit code, CPU).
//
// When the JVM cannot start at all, the wrapper never runs and no
// result file is written; the starter must interpret the absence of a
// result as an escaping error of remote-resource scope (see
// ReadResult).
func (w *Wrapper) Run(m *jvm.Machine, prog *jvm.Program, io jvm.FileOps, scratch *vfs.FileSystem) *jvm.Execution {
	return w.RunFrom(m, prog, io, scratch, 0)
}

// RunFrom is Run resuming from a checkpoint: the program restarts
// with resume worth of computation already done (Standard Universe
// migration; see jvm.ExecuteFrom).
func (w *Wrapper) RunFrom(m *jvm.Machine, prog *jvm.Program, io jvm.FileOps, scratch *vfs.FileSystem, resume time.Duration) *jvm.Execution {
	exec := m.ExecuteFrom(prog, io, resume)

	if exec.Thrown != nil && w.Trace != nil && w.Trace.Enabled() {
		// Origin event: the error as the JVM surfaced it, before any
		// classification.
		th := exec.Thrown
		ekind := "explicit"
		if th.Escaping {
			ekind = "escaping"
		}
		w.Trace.Emit(obs.Event{
			T:      w.traceNow(),
			Comp:   "jvm",
			Kind:   obs.KindError,
			Job:    w.TraceJob,
			Code:   th.Name,
			Scope:  th.Scope.String(),
			EKind:  ekind,
			Detail: th.Message,
		})
	}

	if exec.Thrown != nil && exec.Thrown.Name == "JVMStartError" {
		// The wrapper never got control: no result file.
		return exec
	}

	res := w.Classify(exec)
	if res.Status != scope.StatusExited && w.Trace != nil && w.Trace.Enabled() {
		// Classification event: the scope the wrapper assigned, which
		// may widen the JVM's own reading (Section 3.3).
		w.Trace.Emit(obs.Event{
			T:      w.traceNow(),
			Comp:   "wrapper",
			Kind:   obs.KindError,
			Job:    w.TraceJob,
			Code:   res.Exception,
			Scope:  res.Scope.String(),
			EKind:  res.Status.String(),
			Detail: res.Message,
		})
	}
	// Write the result file.  Failure to write it is itself an
	// environmental failure; the wrapper can do nothing but exit,
	// and the starter will see the absent/partial file as NoResult.
	_ = scratch.WriteFile(DefaultResultPath, []byte(res.EncodeString()))
	return exec
}

// Classify converts an execution into the wrapper's result, applying
// the Java Universe classification (scope.ClassifyJava).  Exported for the Figure 4 experiment
// and the simulation layer, which execute without a scratch file
// system.
func (w *Wrapper) Classify(exec *jvm.Execution) scope.Result {
	if exec.Thrown == nil {
		return scope.Result{Status: scope.StatusExited, ExitCode: exec.ExitCode}
	}
	th := exec.Thrown
	sc := scope.ClassifyJava(th.Name)
	// The thrown error may already carry a wider scope than the
	// name alone implies; scope may only widen (Section 3.3).
	sc = sc.Widen(th.Scope)
	if sc == scope.ScopeProgram && !th.Escaping {
		return scope.Result{
			Status:    scope.StatusException,
			Exception: th.Name,
			Scope:     scope.ScopeProgram,
			Message:   th.Message,
		}
	}
	if sc == scope.ScopeProgram {
		// An escaping error that classifies as program scope still
		// cannot be a program result; it invalidates at least the
		// process.
		sc = scope.ScopeProcess
	}
	return scope.Result{
		Status:    scope.StatusEscape,
		Exception: th.Name,
		Scope:     sc,
		Message:   th.Message,
	}
}

// ReadResult is the starter's side of the indirect channel: it reads
// and decodes the wrapper's result file (DefaultResultPath) from
// scratch.  A missing or
// unparseable file yields StatusNoResult — the execution environment
// failed before the wrapper could report, an error of remote-resource
// scope.
func ReadResult(scratch *vfs.FileSystem) scope.Result {
	data, err := scratch.ReadFile(DefaultResultPath)
	if err != nil {
		return scope.Result{Status: scope.StatusNoResult}
	}
	res, err := scope.DecodeResultString(string(data))
	if err != nil {
		return scope.Result{Status: scope.StatusNoResult}
	}
	return res
}

// RawExitInterpretation is the original, pre-wrapper behaviour: the
// starter relies entirely on the JVM exit code as an indicator of
// program success.  Every termination is presented as a program
// result, converting environmental failures into implicit errors in
// the layer above (a violation of Principle 1 that the experiments
// quantify).
func RawExitInterpretation(exec *jvm.Execution) scope.Result {
	return scope.Result{Status: scope.StatusExited, ExitCode: exec.ExitCode}
}
