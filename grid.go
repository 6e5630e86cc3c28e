// Package grid is the public facade of the error-scope grid: a Go
// reproduction of Thain & Livny, "Error Scope on a Computational
// Grid: Theory and Practice" (HPDC 2002).
//
// The package re-exports the pieces a downstream user composes:
//
//   - the error-scope theory (Scope, Error, Contract, Result, the
//     four principles) from internal/scope;
//   - the ClassAd language and matchmaking from internal/classad;
//   - the simulated Condor kernel (matchmaker, schedd, startd,
//     shadow, starter) and pool assembly from internal/daemon and
//     internal/pool;
//   - the protocol-realistic I/O stack (Chirp, the shadow remote I/O
//     channel, the Java I/O library) from internal/chirp,
//     internal/remoteio, and internal/javaio;
//   - the experiment harness regenerating every figure of the paper
//     from internal/experiments.
//
// See README.md for a tour and examples/ for runnable programs.
package grid

import (
	"time"

	"github.com/errscope/grid/internal/classad"
	"github.com/errscope/grid/internal/daemon"
	"github.com/errscope/grid/internal/dag"
	"github.com/errscope/grid/internal/endtoend"
	"github.com/errscope/grid/internal/experiments"
	"github.com/errscope/grid/internal/jvm"
	"github.com/errscope/grid/internal/live"
	"github.com/errscope/grid/internal/pool"
	"github.com/errscope/grid/internal/scope"
	"github.com/errscope/grid/internal/sim"
	"github.com/errscope/grid/internal/submit"
)

// Error-scope theory.
type (
	// Scope is the portion of a system an error invalidates.
	Scope = scope.Scope
	// Error is a scoped error.
	Error = scope.Error
	// Contract is a concise, finite error interface (Principle 4).
	Contract = scope.Contract
	// Result is a wrapper result file.
	Result = scope.Result
	// Disposition is the schedd's final decision for a job.
	Disposition = scope.Disposition
)

// The scope lattice, innermost to outermost.
const (
	ScopeFile           = scope.ScopeFile
	ScopeFunction       = scope.ScopeFunction
	ScopeNetwork        = scope.ScopeNetwork
	ScopeProcess        = scope.ScopeProcess
	ScopeProgram        = scope.ScopeProgram
	ScopeVirtualMachine = scope.ScopeVirtualMachine
	ScopeRemoteResource = scope.ScopeRemoteResource
	ScopeLocalResource  = scope.ScopeLocalResource
	ScopeJob            = scope.ScopeJob
	ScopePool           = scope.ScopePool
)

// Dispositions of the schedd's last-line-of-defense policy.
const (
	DispositionComplete     = scope.DispositionComplete
	DispositionUnexecutable = scope.DispositionUnexecutable
	DispositionRequeue      = scope.DispositionRequeue
	DispositionHold         = scope.DispositionHold
)

// NewError constructs an explicit scoped error.
func NewError(s Scope, code, format string, args ...any) *Error {
	return scope.New(s, code, format, args...)
}

// EscapeError converts an error into an escaping error of at least
// the given scope (Principle 2).
func EscapeError(s Scope, code string, cause error) *Error {
	return scope.Escape(s, code, cause)
}

// Dispose applies the schedd policy to an error's scope.
func Dispose(err error) Disposition { return scope.DisposeError(err) }

// ClassAd language.
type (
	// Ad is a ClassAd.
	Ad = classad.Ad
	// AdValue is a ClassAd runtime value.
	AdValue = classad.Value
)

// NewAd creates an empty ClassAd.
func NewAd() *Ad { return classad.NewAd() }

// ParseAd parses old- or new-syntax ClassAd text.
func ParseAd(src string) (*Ad, error) { return classad.Parse(src) }

// MatchAds reports two-way Requirements agreement.
func MatchAds(a, b *Ad) bool { return classad.Match(a, b) }

// Kernel and pool.
type (
	// Pool is an assembled simulation of a Condor pool.
	Pool = pool.Pool
	// PoolConfig configures a pool.
	PoolConfig = pool.Config
	// Metrics summarizes a run.
	Metrics = pool.Metrics
	// Params are kernel protocol parameters.
	Params = daemon.Params
	// MachineConfig describes one execution machine.
	MachineConfig = daemon.MachineConfig
	// Job is a queued job.
	Job = daemon.Job
	// JobID identifies a job.
	JobID = daemon.JobID
	// Program is a simulated Java program.
	Program = jvm.Program
	// Engine is the discrete-event engine.
	Engine = sim.Engine
)

// Execution modes.
const (
	ModeScoped = daemon.ModeScoped
	ModeNaive  = daemon.ModeNaive
)

// NewPool assembles a pool.
func NewPool(cfg PoolConfig) *Pool { return pool.New(cfg) }

// DefaultParams returns the standard kernel parameters.
func DefaultParams() Params { return daemon.DefaultParams() }

// UniformMachines builds n healthy machines.
func UniformMachines(n int, memoryMB int64) []MachineConfig {
	return pool.UniformMachines(n, memoryMB)
}

// NewJavaJobAd builds a typical Java Universe job ad.
func NewJavaJobAd(owner string, imageSizeMB int64) *Ad {
	return daemon.NewJavaJobAd(owner, imageSizeMB)
}

// Experiments.
type (
	// Report is one experiment's tabular output.
	Report = experiments.Report
)

// The experiment harness, one entry per figure/section of the paper.
var (
	Figure1    = experiments.Figure1
	Figure2    = experiments.Figure2
	Figure3    = experiments.Figure3
	Figure4    = experiments.Figure4
	Principles = experiments.Principles
)

// End-to-end supervision (Section 5's layer above the grid).
type (
	// Supervisor validates outputs and resubmits around implicit
	// errors.
	Supervisor = endtoend.Supervisor
	// SupervisedSpec describes one supervised unit of work.
	SupervisedSpec = endtoend.Spec
)

// NewSupervisor attaches a supervisor to a pool.
func NewSupervisor(p *Pool) *Supervisor { return endtoend.New(p) }

// LiveRuntime runs the kernel daemons on the wall clock.
type LiveRuntime = live.Runtime

// NewLiveRuntime creates a live runtime with the given message
// latency.
func NewLiveRuntime(latency time.Duration) *LiveRuntime {
	return live.New(latency)
}

// Workflows (DAGMan-style) and submit description files.
type (
	// DAG is a workflow of dependent jobs.
	DAG = dag.DAG
	// DAGRunner executes a DAG over a pool.
	DAGRunner = dag.Runner
	// SubmitFile is a parsed condor_submit description.
	SubmitFile = submit.File
)

// NewDAG creates an empty workflow.
func NewDAG() *DAG { return dag.New() }

// StartDAG begins executing a workflow over the pool.
func StartDAG(d *DAG, p *Pool) (*DAGRunner, error) { return dag.Start(d, p) }

// ParseDAG reads a DAGMan-style workflow file; lookup resolves the
// submit description files it references.
func ParseDAG(src string, lookup func(file string) (string, error)) (*DAG, error) {
	return dag.Parse(src, lookup)
}

// ParseSubmitFile reads a condor_submit-style description.
func ParseSubmitFile(src string) (*SubmitFile, error) { return submit.Parse(src) }
