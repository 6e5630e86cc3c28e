package pool

import (
	"errors"
	"testing"
	"time"

	"github.com/errscope/grid/internal/daemon"
	"github.com/errscope/grid/internal/scope"
	"github.com/errscope/grid/internal/sim"
)

// walkMetrics is the summary as Pool.Metrics computed it before the
// retired tallies: a fold of every job ever submitted, read back
// through Jobs, and a scan of every report.  It is the oracle the
// tallies must agree with.
func walkMetrics(p *Pool) Metrics {
	var m Metrics
	m.MessagesSent = p.Bus.Sent()
	m.MessagesLost = p.Bus.Lost()
	for _, s := range p.Schedds {
		m.Requeues += s.Requeues
		m.Recoveries += s.Recoveries
		for _, r := range s.Reports() {
			if r.IncidentalLeak {
				m.IncidentalLeaks++
			}
		}
		for _, j := range s.Jobs() {
			m.addJob(j)
		}
	}
	for _, sd := range p.Startds {
		m.LeaseExpiries += sd.LeasesExpired
		m.Preemptions += sd.Preemptions
	}
	return m
}

// addJob folds one job and its attempts into the summary.
func (m *Metrics) addJob(j *daemon.Job) {
	m.Jobs++
	switch j.State {
	case daemon.JobCompleted:
		m.Completed++
		m.TurnaroundTotal += j.Finished.Sub(j.Submitted)
	case daemon.JobUnexecutable:
		m.Unexecutable++
	case daemon.JobHeld:
		m.Held++
	default:
		m.Unfinished++
	}
	for i := range j.Attempts {
		att := &j.Attempts[i]
		m.Attempts++
		if att.FetchError != nil {
			m.FetchFailures++
			continue
		}
		if att.LostContact != nil {
			m.LostContacts++
			continue
		}
		if att.Evicted {
			m.Evictions++
			continue
		}
		if s := att.True.ErrScope(); s == scope.ScopeNone || s == scope.ScopeProgram {
			m.Goodput += att.CPU
		} else {
			m.Badput += att.End.Sub(att.Start)
		}
	}
}

// TestGoodputSplitFollowsTheTrueError: the summary sorts an attempt
// into goodput or badput by Result.ErrScope, which names the scope of
// the attempt's true error without building the error.  For every
// status and every scope a result can carry — including an escape with
// no usable scope — that must be the scope of the error Result.Err
// builds, and the split must be the one that error implies, in the
// oracle's fold and in daemon.Tally's alike.
func TestGoodputSplitFollowsTheTrueError(t *testing.T) {
	scopes := []scope.Scope{-1, 99}
	for s := scope.ScopeNone; s <= scope.ScopePool; s++ {
		scopes = append(scopes, s)
	}
	const cpu, occupancy = 3 * time.Second, 10 * time.Second
	for _, status := range []scope.ResultStatus{scope.StatusExited, scope.StatusException,
		scope.StatusEscape, scope.StatusNoResult, scope.StatusNoResult + 1} {
		for _, sc := range scopes {
			for _, exit := range []int{0, 1} {
				res := scope.Result{Status: status, ExitCode: exit, Scope: sc, Exception: "X", Message: "m"}
				err := res.Err()
				if got, want := res.ErrScope(), scope.ScopeOf(err); got != want {
					t.Errorf("%+v: ErrScope() = %s, ScopeOf(Err()) = %s", res, got, want)
				}
				job := &daemon.Job{Attempts: []daemon.Attempt{
					{True: res, CPU: cpu, Start: 0, End: sim.Time(occupancy)},
					{True: res, CPU: cpu, Evicted: true},
					{True: res, CPU: cpu, FetchError: errors.New("fetch")},
					{True: res, CPU: cpu, LostContact: errors.New("silence")},
				}}
				var m, tallied Metrics
				m.addJob(job)
				var tally daemon.Tally
				tally.Add(job)
				tallied.Merge(tally)
				want := Metrics{Tally: daemon.Tally{Jobs: 1, Unfinished: 1, Attempts: 4, Evictions: 1, FetchFailures: 1, LostContacts: 1}}
				if err == nil || scope.ScopeOf(err) == scope.ScopeProgram {
					want.Goodput = cpu
				} else {
					want.Badput = occupancy
				}
				if m != want || tallied != want {
					t.Errorf("%+v:\n   walk %+v\n  tally %+v\n   want %+v", res, m, tallied, want)
				}
			}
		}
	}
}

// agree fails unless Pool.Metrics equals the full walk.
func agree(t *testing.T, p *Pool, when string) {
	t.Helper()
	if got, want := p.Metrics(), walkMetrics(p); got != want {
		t.Fatalf("%s: Metrics disagrees with the full walk\n  got %+v\n want %+v", when, got, want)
	}
}

// TestMetricsAgreeWithTheWalkEveryPump drives the ops shape — standard
// jobs checkpointing through a mid-run drain — and reads Metrics after
// every step, as a monitor's pump does.  Every reading must equal the
// full walk, and the run must retire jobs, so the tallies are on the
// path.
func TestMetricsAgreeWithTheWalkEveryPump(t *testing.T) {
	params := daemon.DefaultParams()
	params.CheckpointInterval = 10 * time.Minute
	params.CheckpointOverhead = 15 * time.Second
	params.MaxAttempts = 100
	p := New(Config{Seed: 42, Params: params, Machines: UniformMachines(8, 2048)})
	p.SubmitStandard(24, UniformCompute(90*time.Minute))
	p.Engine.After(45*time.Minute, func() {
		for _, sd := range p.Startds {
			if sd.Name() == "c002" {
				if err := sd.Drain(); err != nil {
					t.Errorf("drain: %v", err)
				}
			}
		}
	})
	steps := 0
	for deadline := p.Engine.Now().Add(72 * time.Hour); p.Engine.Now() < deadline && !p.AllTerminal(); steps++ {
		p.Engine.RunFor(time.Minute)
		agree(t, p, p.Engine.Now().String())
	}
	m := p.Metrics()
	if m.Completed != 24 || m.Evictions == 0 {
		t.Fatalf("ops run ended %+v", m)
	}
	if p.Schedd.History().Size() == 0 {
		t.Fatalf("%d steps retired no job", steps)
	}
}

// TestMetricsAgreeWithTheWalkEveryRecover drives the faulty shape —
// black holes, churn, mixed Java and standard jobs — through three
// schedd crashes, and compares Metrics with the full walk before each
// crash, after each Recover and at the end.  After a Recover the
// retired tallies come from the history's last frame, and the walk
// decodes every retired job from the history: the two must agree.
func TestMetricsAgreeWithTheWalkEveryRecover(t *testing.T) {
	params := daemon.DefaultParams()
	params.CheckpointInterval = 10 * time.Minute
	params.CheckpointOverhead = 15 * time.Second
	params.MaxAttempts = 100
	p := New(Config{
		Seed:     42,
		Params:   params,
		Machines: Misconfigure(UniformMachines(32, 2048), 4, BreakBadLibraryPath, false),
		Churn:    &ChurnConfig{Horizon: 48 * time.Hour, MeanUp: 30 * time.Minute, Downtime: 10 * time.Minute},
	})
	p.StageSharedInput()
	p.SubmitJava(96, MixedWorkload(42, 5*time.Minute))
	p.SubmitStandard(24, UniformCompute(45*time.Minute))
	crashes := []time.Duration{15 * time.Minute, 40 * time.Minute, 70 * time.Minute}
	for deadline := p.Engine.Now().Add(7 * 24 * time.Hour); p.Engine.Now() < deadline && !p.AllTerminal(); {
		p.Engine.RunFor(time.Minute)
		if len(crashes) > 0 && time.Duration(p.Engine.Now()) >= crashes[0] {
			crashes = crashes[1:]
			agree(t, p, "before crash at "+p.Engine.Now().String())
			p.Schedd.Crash()
			p.Engine.RunFor(30 * time.Second)
			if err := p.Schedd.Recover(nil); err != nil {
				t.Fatalf("recover: %v", err)
			}
			agree(t, p, "after recover at "+p.Engine.Now().String())
		}
	}
	if len(crashes) != 0 {
		t.Fatalf("the queue drained before %d crashes", len(crashes))
	}
	agree(t, p, "at the end")
	if m := p.Metrics(); m.Recoveries != 3 || m.Unfinished != 0 {
		t.Fatalf("faulty run ended %+v", m)
	}
}
