// The Section 5 mount-policy story: the submit-side file system
// suffers a 45-minute outage while a workload runs.  Hard mounts hide
// the outage and hold claims; short soft mounts fail early and
// requeue; per-job patience lets every program choose its own failure
// criteria.
//
//	go run ./examples/softmount
package main

import (
	"fmt"
	"time"

	"github.com/errscope/grid/internal/daemon"
	"github.com/errscope/grid/internal/jvm"
	"github.com/errscope/grid/internal/pool"
)

func run(name string, mount daemon.MountPolicy, perJob bool) {
	params := daemon.DefaultParams()
	params.Mount = mount
	p := pool.New(pool.Config{Seed: 11, Params: params,
		Machines: pool.UniformMachines(4, 2048)})
	if perJob {
		// Half the jobs are interactive (2 minutes of patience),
		// half are overnight batch (2 hours).  The patience goes into
		// the ad before Submit: the submit record is what a schedd
		// crash recovers the ad from.
		for i := 0; i < 12; i++ {
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
			p.Schedd.Submit(&daemon.Job{Owner: "user", Ad: ad,
				Program: jvm.WellBehaved(10 * time.Minute), Executable: exe})
		}
	} else {
		p.SubmitJava(12, pool.UniformCompute(10*time.Minute))
	}
	// The outage: 45 minutes, starting 5 minutes in.
	p.Engine.After(5*time.Minute, func() { p.Schedd.SubmitFS.SetOffline(true) })
	p.Engine.After(50*time.Minute, func() { p.Schedd.SubmitFS.SetOffline(false) })
	p.Run(24 * time.Hour)
	m := p.Metrics()
	fmt.Printf("%-10s completed %2d/%2d  fetch failures %2d  mean turnaround %s\n",
		name, m.Completed, m.Jobs, m.FetchFailures,
		m.MeanTurnaround().Truncate(time.Second))
}

func main() {
	fmt.Println("45-minute submit-side outage under four mount policies:")
	fmt.Println()
	retry := 30 * time.Second
	run("hard", daemon.MountPolicy{Kind: daemon.MountHard, RetryInterval: retry}, false)
	run("soft 2m", daemon.MountPolicy{Kind: daemon.MountSoft, SoftTimeout: 2 * time.Minute, RetryInterval: retry}, false)
	run("soft 2h", daemon.MountPolicy{Kind: daemon.MountSoft, SoftTimeout: 2 * time.Hour, RetryInterval: retry}, false)
	run("per-job", daemon.MountPolicy{Kind: daemon.MountPerJob, SoftTimeout: 10 * time.Minute, RetryInterval: retry}, true)
	fmt.Println()
	fmt.Println("\"both of these choices are unsavory, as they offer no mechanism for a")
	fmt.Println("single program to choose its own failure criteria\" — the per-job row does.")
}
