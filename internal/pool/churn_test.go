package pool

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/errscope/grid/internal/daemon"
	"github.com/errscope/grid/internal/jvm"
)

// TestChurnedPoolCompletesStandardJobs: machines come and go on a
// seeded schedule, yet every checkpointing job completes — each
// eviction is a remote-resource error scoped to the claim, and the
// journaled checkpoints bound the rework.
func TestChurnedPoolCompletesStandardJobs(t *testing.T) {
	params := daemon.DefaultParams()
	params.CheckpointInterval = 10 * time.Minute
	p := New(Config{
		Seed:     7,
		Params:   params,
		Machines: UniformMachines(8, 2048),
		Churn: &ChurnConfig{
			Horizon:  12 * time.Hour,
			MeanUp:   2 * time.Hour,
			Downtime: 30 * time.Minute,
		},
	})
	p.SubmitStandard(16, UniformCompute(45*time.Minute))
	p.Run(48 * time.Hour)
	m := p.Metrics()
	if m.Unfinished != 0 || m.Completed != 16 {
		t.Fatalf("completed = %d unfinished = %d: %s", m.Completed, m.Unfinished, m)
	}
	if m.Evictions == 0 {
		t.Error("churn produced no evictions — the schedule never fired")
	}
	if m.IncidentalLeaks != 0 {
		t.Errorf("churn leaked incidental errors: %s", m)
	}
}

// TestChurnCrashMode: crash-mode churn is silent — the pool discovers
// the losses through timeouts — and checkpointing still carries every
// job to completion.
func TestChurnCrashMode(t *testing.T) {
	params := daemon.DefaultParams()
	params.CheckpointInterval = 10 * time.Minute
	params.ResultTimeout = 30 * time.Minute
	p := New(Config{
		Seed:     11,
		Params:   params,
		Machines: UniformMachines(8, 2048),
		Churn: &ChurnConfig{
			Horizon:  8 * time.Hour,
			MeanUp:   3 * time.Hour,
			Downtime: time.Hour,
			Crash:    true,
		},
	})
	p.SubmitStandard(12, UniformCompute(30*time.Minute))
	p.Run(72 * time.Hour)
	m := p.Metrics()
	if m.Unfinished != 0 || m.Completed != 12 {
		t.Fatalf("completed = %d unfinished = %d: %s", m.Completed, m.Unfinished, m)
	}
}

// TestChurnEnqueuesOneTransitionPerMachine: the whole schedule is
// drawn when the pool is built, but the engine holds only each
// machine's next transition, never the horizon's worth.
func TestChurnEnqueuesOneTransitionPerMachine(t *testing.T) {
	build := func(churn *ChurnConfig) *Pool {
		return New(Config{Seed: 3, Params: daemon.DefaultParams(), Machines: UniformMachines(16, 2048), Churn: churn})
	}
	static := build(nil).Engine.Pending()
	churned := build(&ChurnConfig{Horizon: 48 * time.Hour, MeanUp: 30 * time.Minute, Downtime: 10 * time.Minute})
	if got := churned.Engine.Pending() - static; got != 16 {
		t.Errorf("churn enqueued %d events for 16 machines, want one each", got)
	}
}

// TestChurnRequiresHorizon: without a horizon the schedule would be
// drawn forever, so building the pool panics and names the field.
func TestChurnRequiresHorizon(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "Horizon") {
			t.Fatalf("recovered %v, want a panic naming Horizon", r)
		}
	}()
	New(Config{Seed: 1, Params: daemon.DefaultParams(), Machines: UniformMachines(2, 2048),
		Churn: &ChurnConfig{MeanUp: time.Hour}})
}

// TestChurnDeterministic: the churn schedule is part of the seed's
// contract — equal seeds give equal metrics, distinct churn seeds give
// (almost surely) distinct schedules.
func TestChurnDeterministic(t *testing.T) {
	run := func(churnSeed int64) Metrics {
		params := daemon.DefaultParams()
		params.CheckpointInterval = 10 * time.Minute
		p := New(Config{
			Seed:     42,
			Params:   params,
			Machines: UniformMachines(6, 2048),
			Churn: &ChurnConfig{
				Seed:     churnSeed,
				Horizon:  10 * time.Hour,
				MeanUp:   90 * time.Minute,
				Downtime: 20 * time.Minute,
			},
		})
		p.SubmitStandard(10, UniformCompute(40*time.Minute))
		p.Run(48 * time.Hour)
		return p.Metrics()
	}
	a, b := run(0), run(0)
	if a != b {
		t.Errorf("same seed, different metrics:\n%s\n%s", a, b)
	}
	if c := run(99); c == a && c.Evictions == a.Evictions {
		t.Logf("distinct churn seeds coincided (possible, just unlikely): %s", c)
	}
}

// TestStandardJobsNeverEvictedMatchJava: SubmitStandard itself is
// benign — without churn the jobs run exactly once.
func TestStandardJobsRunOnceWithoutChurn(t *testing.T) {
	params := daemon.DefaultParams()
	params.CheckpointInterval = 10 * time.Minute
	p := New(Config{Seed: 5, Params: params, Machines: UniformMachines(4, 2048)})
	p.SubmitStandard(8, func(int) *jvm.Program { return jvm.WellBehaved(20 * time.Minute) })
	p.Run(24 * time.Hour)
	m := p.Metrics()
	if m.Completed != 8 || m.Attempts != 8 || m.Evictions != 0 {
		t.Fatalf("completed = %d attempts = %d evictions = %d: %s",
			m.Completed, m.Attempts, m.Evictions, m)
	}
}
