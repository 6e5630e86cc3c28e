package experiments

import (
	"fmt"
	"time"

	"github.com/errscope/grid/internal/daemon"
	"github.com/errscope/grid/internal/jvm"
	"github.com/errscope/grid/internal/pool"
)

// NaiveVsScoped reproduces the experience of Section 2.3: a pool with
// a configurable fraction of faulty machines runs the same workload
// under the naive and the scoped disciplines; the key column is the
// number of incidental (environmental) errors leaked to the user as
// program results.
func NaiveVsScoped(seed int64, machines, jobs int, fractions []float64) *Report {
	r := &Report{
		ID:    "naive-vs-scoped",
		Title: "Section 2.3: incidental errors returned to the user",
		Headers: []string{"faulty frac", "mode", "completed", "leaked to user",
			"unexec", "held", "requeues", "goodput frac"},
	}
	for _, frac := range fractions {
		k := int(frac * float64(machines))
		for _, mode := range []daemon.Mode{daemon.ModeNaive, daemon.ModeScoped} {
			params := daemon.DefaultParams()
			params.Mode = mode
			if mode == daemon.ModeScoped {
				// The corrected system also avoids chronic failers,
				// as deployed (Section 5).
				params.ChronicFailureThreshold = 3
			}
			ms := pool.Misconfigure(pool.UniformMachines(machines, 2048), k,
				pool.BreakBadLibraryPath, false)
			p := pool.New(pool.Config{Seed: seed, Params: params, Machines: ms})
			p.StageSharedInput()
			p.SubmitJava(jobs, pool.MixedWorkload(seed, 10*time.Minute))
			p.Run(7 * 24 * time.Hour)
			m := p.Metrics()
			r.AddRow(
				fmt.Sprintf("%.0f%%", frac*100),
				mode.String(),
				fmt.Sprintf("%d/%d", m.Completed, m.Jobs),
				fmt.Sprintf("%d", m.IncidentalLeaks),
				fmt.Sprintf("%d", m.Unexecutable),
				fmt.Sprintf("%d", m.Held),
				fmt.Sprintf("%d", m.Requeues),
				fmt.Sprintf("%.2f", m.GoodputFraction()),
			)
		}
	}
	r.AddNote("naive mode returns environmental failures to the user (leaks);")
	r.AddNote("scoped mode consumes them inside the system and completes the work")
	return r
}

// BlackholePolicy names a Section 5 mitigation configuration.
type BlackholePolicy struct {
	Name      string
	SelfTest  bool
	Threshold int
}

// BlackholePolicies are the four ablation arms of the Section 5
// experiment.
func BlackholePolicies() []BlackholePolicy {
	return []BlackholePolicy{
		{Name: "none"},
		{Name: "startd-selftest", SelfTest: true},
		{Name: "schedd-avoidance", Threshold: 3},
		{Name: "both", SelfTest: true, Threshold: 3},
	}
}

// Blackhole reproduces the Section 5 black-hole experiment: a
// fraction of machines assert a working Java they do not have,
// attract a continuous stream of jobs, fail them quickly, and waste
// capacity.  The startd self-test and the schedd's chronic-failure
// avoidance each restore goodput.
func Blackhole(seed int64, machines, jobs int, fractions []float64, policies []BlackholePolicy) *Report {
	r := &Report{
		ID:    "blackhole",
		Title: "Section 5: misconfigured machines as job black holes",
		Headers: []string{"faulty frac", "policy", "completed", "wasted attempts",
			"badput", "requeues", "mean turnaround"},
	}
	for _, frac := range fractions {
		k := int(frac * float64(machines))
		for _, pol := range policies {
			params := daemon.DefaultParams()
			params.ChronicFailureThreshold = pol.Threshold
			params.MaxAttempts = 50
			ms := pool.Misconfigure(pool.UniformMachines(machines, 2048), k,
				pool.BreakBadLibraryPath, pol.SelfTest)
			p := pool.New(pool.Config{Seed: seed, Params: params, Machines: ms})
			p.SubmitJava(jobs, pool.UniformCompute(10*time.Minute))
			p.Run(7 * 24 * time.Hour)
			m := p.Metrics()
			wasted := m.Attempts - m.Completed - m.FetchFailures
			r.AddRow(
				fmt.Sprintf("%.0f%%", frac*100),
				pol.Name,
				fmt.Sprintf("%d/%d", m.Completed, m.Jobs),
				fmt.Sprintf("%d", wasted),
				m.Badput.String(),
				fmt.Sprintf("%d", m.Requeues),
				m.MeanTurnaround().Truncate(time.Second).String(),
			)
		}
	}
	r.AddNote("with no policy, black holes attract a continuous stream of jobs that")
	r.AddNote("execute, fail, and return to the schedd — correct handling, wasted capacity;")
	r.AddNote("the startd self-test removes the attraction, schedd avoidance learns it")
	return r
}

// submitPatientJobs queues what pool.SubmitJava would, except that
// each job states its own patience for submit-side outages: half
// declare two minutes, half declare two hours.  OutageTolerance goes
// into the ad before Submit — the submit record is the ad's durable
// form, so an attribute set afterwards would not survive a schedd
// crash.
func submitPatientJobs(p *pool.Pool, n int, compute time.Duration) []daemon.JobID {
	ids := make([]daemon.JobID, 0, n)
	for i := 0; i < n; i++ {
		exe := fmt.Sprintf("/home/user/job%d.class", i)
		if err := p.Schedd.SubmitFS.WriteFile(exe, []byte("class bytes")); err != nil {
			exe = ""
		}
		ad := daemon.NewJavaJobAd("user", 128)
		tol := int64(120)
		if i%2 == 1 {
			tol = 7200
		}
		ad.SetInt("OutageTolerance", tol)
		ids = append(ids, p.Schedd.Submit(&daemon.Job{Owner: "user", Ad: ad,
			Program: jvm.WellBehaved(compute), Executable: exe}))
	}
	return ids
}

// Mounts reproduces the Section 5 hard/soft mount discussion: the
// submit file system suffers an outage of varying length while a
// workload runs; each policy trades stuck claims against premature
// failures.  Per-job criteria let short-patience and long-patience
// jobs coexist.
func Mounts(seed int64, machines, jobs int, outages []time.Duration) *Report {
	r := &Report{
		ID:    "mounts",
		Title: "Section 5: hard and soft mounts under submit-side outages",
		Headers: []string{"outage", "policy", "completed", "fetch failures",
			"shadow stuck time", "mean turnaround"},
	}
	type arm struct {
		name  string
		mount daemon.MountPolicy
	}
	arms := []arm{
		{"hard", daemon.MountPolicy{Kind: daemon.MountHard, RetryInterval: 30 * time.Second}},
		{"soft 2m", daemon.MountPolicy{Kind: daemon.MountSoft, SoftTimeout: 2 * time.Minute, RetryInterval: 30 * time.Second}},
		{"soft 1h", daemon.MountPolicy{Kind: daemon.MountSoft, SoftTimeout: time.Hour, RetryInterval: 30 * time.Second}},
		{"per-job", daemon.MountPolicy{Kind: daemon.MountPerJob, SoftTimeout: 10 * time.Minute, RetryInterval: 30 * time.Second}},
	}
	for _, outage := range outages {
		for _, a := range arms {
			params := daemon.DefaultParams()
			params.Mount = a.mount
			p := pool.New(pool.Config{Seed: seed, Params: params,
				Machines: pool.UniformMachines(machines, 2048)})
			if a.mount.Kind == daemon.MountPerJob {
				submitPatientJobs(p, jobs, 10*time.Minute)
			} else {
				p.SubmitJava(jobs, pool.UniformCompute(10*time.Minute))
			}
			// The outage begins 5 minutes in.
			p.Engine.After(5*time.Minute, func() { p.Schedd.SubmitFS.SetOffline(true) })
			p.Engine.After(5*time.Minute+outage, func() { p.Schedd.SubmitFS.SetOffline(false) })
			p.Run(3 * 24 * time.Hour)
			m := p.Metrics()
			// Shadow stuck time: claims held while waiting out the
			// outage, approximated by attempts whose fetch never
			// resolved within the outage (hard mount holds claims).
			stuck := "-"
			if a.mount.Kind == daemon.MountHard {
				stuck = outage.String()
			}
			r.AddRow(
				outage.String(),
				a.name,
				fmt.Sprintf("%d/%d", m.Completed, m.Jobs),
				fmt.Sprintf("%d", m.FetchFailures),
				stuck,
				m.MeanTurnaround().Truncate(time.Second).String(),
			)
		}
	}
	r.AddNote("hard mounts hide the outage but hold claims for its whole length;")
	r.AddNote("short soft mounts fail early and requeue; per-job patience lets each")
	r.AddNote("program choose its own failure criteria — the option NFS never offered")
	return r
}
