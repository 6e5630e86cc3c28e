package grid

// Benchmarks regenerating every figure of the paper plus the
// substrate micro-benchmarks.  One benchmark per table/figure:
//
//	BenchmarkFigure1KernelJob   — Figure 1, the kernel protocol chain
//	BenchmarkFigure2DataPath    — Figure 2, the I/O path over real TCP
//	BenchmarkFigure3ScopeSweep  — Figure 3, one error per scope tier
//	BenchmarkFigure4            — Figure 4, the result-code table
//	BenchmarkNaiveVsScoped      — Section 2.3, before/after
//	BenchmarkBlackhole          — Section 5, black-hole policies
//	BenchmarkMountPolicies      — Section 5, hard/soft/per-job mounts
//
// Absolute numbers are simulation costs, not testbed costs; the
// comparisons that matter (who wins, by what factor) are in the
// experiment reports themselves (cmd/experiments, EXPERIMENTS.md).

import (
	"fmt"
	"testing"
	"time"

	"github.com/errscope/grid/internal/chirp"
	"github.com/errscope/grid/internal/classad"
	"github.com/errscope/grid/internal/daemon"
	"github.com/errscope/grid/internal/experiments"
	"github.com/errscope/grid/internal/javaio"
	"github.com/errscope/grid/internal/jvm"
	"github.com/errscope/grid/internal/pool"
	"github.com/errscope/grid/internal/remoteio"
	"github.com/errscope/grid/internal/scope"
	"github.com/errscope/grid/internal/sim"
	"github.com/errscope/grid/internal/vfs"
	"github.com/errscope/grid/internal/wrapper"
)

// --- Figure benchmarks ---

func BenchmarkFigure1KernelJob(b *testing.B) {
	b.ReportAllocs()
	params := daemon.DefaultParams()
	for i := 0; i < b.N; i++ {
		eng := sim.New(1)
		bus := sim.NewBus(eng, 5*time.Millisecond)
		daemon.NewMatchmaker(bus, params)
		schedd := daemon.NewSchedd(bus, params, "schedd")
		daemon.NewStartd(bus, params, daemon.MachineConfig{
			Name: "m1", Memory: 2048, AdvertiseJava: true,
		})
		schedd.SubmitFS.WriteFile("/x.class", []byte("b"))
		schedd.Submit(&daemon.Job{
			Owner: "u", Ad: daemon.NewJavaJobAd("u", 128),
			Program: jvm.WellBehaved(5 * time.Minute), Executable: "/x.class",
		})
		for eng.Now() < sim.Time(time.Hour) && !schedd.AllTerminal() {
			eng.RunFor(time.Minute)
		}
		if !schedd.AllTerminal() {
			b.Fatal("job did not finish")
		}
	}
}

func BenchmarkFigure2DataPath(b *testing.B) {
	b.ReportAllocs()
	key := []byte("k")
	submitFS := vfs.New()
	submitFS.WriteFile("/in", make([]byte, 4096))
	shadowSrv := remoteio.NewServer(submitFS, key)
	shadowAddr, err := shadowSrv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer shadowSrv.Close()
	shadowChan, err := remoteio.Dial(shadowAddr, key)
	if err != nil {
		b.Fatal(err)
	}
	defer shadowChan.Close()
	proxy := chirp.NewServer(&remoteio.ChirpBackend{Client: shadowChan}, "c")
	proxyAddr, err := proxy.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer proxy.Close()
	session, err := chirp.Dial(proxyAddr, "c")
	if err != nil {
		b.Fatal(err)
	}
	defer session.Close()
	lib := javaio.New(javaio.NewChirpTransport(session))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lib.Read("/in", 0, 4096); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(4096)
}

func BenchmarkFigure3ScopeSweep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := experiments.Figure3()
		if len(r.Rows) != 6 {
			b.Fatal("bad figure3")
		}
	}
}

func BenchmarkFigure4(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, rows := experiments.Figure4()
		if len(rows) != 7 {
			b.Fatal("bad figure4")
		}
	}
}

func BenchmarkNaiveVsScoped(b *testing.B) {
	b.ReportAllocs()
	for _, mode := range []daemon.Mode{daemon.ModeNaive, daemon.ModeScoped} {
		b.Run(mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				params := daemon.DefaultParams()
				params.Mode = mode
				if mode == daemon.ModeScoped {
					params.ChronicFailureThreshold = 3
				}
				ms := pool.Misconfigure(pool.UniformMachines(8, 2048), 2,
					pool.BreakBadLibraryPath, false)
				p := pool.New(pool.Config{Seed: 1, Params: params, Machines: ms})
				p.StageSharedInput()
				p.SubmitJava(24, pool.MixedWorkload(1, 10*time.Minute))
				p.Run(72 * time.Hour)
			}
		})
	}
}

func BenchmarkBlackhole(b *testing.B) {
	b.ReportAllocs()
	for _, pol := range experiments.BlackholePolicies() {
		b.Run(pol.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				params := daemon.DefaultParams()
				params.ChronicFailureThreshold = pol.Threshold
				params.MaxAttempts = 50
				ms := pool.Misconfigure(pool.UniformMachines(10, 2048), 3,
					pool.BreakBadLibraryPath, pol.SelfTest)
				p := pool.New(pool.Config{Seed: 1, Params: params, Machines: ms})
				p.SubmitJava(30, pool.UniformCompute(10*time.Minute))
				p.Run(72 * time.Hour)
			}
		})
	}
}

func BenchmarkMountPolicies(b *testing.B) {
	b.ReportAllocs()
	arms := []struct {
		name  string
		mount daemon.MountPolicy
	}{
		{"hard", daemon.MountPolicy{Kind: daemon.MountHard, RetryInterval: 30 * time.Second}},
		{"soft", daemon.MountPolicy{Kind: daemon.MountSoft, SoftTimeout: 2 * time.Minute, RetryInterval: 30 * time.Second}},
		{"per-job", daemon.MountPolicy{Kind: daemon.MountPerJob, SoftTimeout: 10 * time.Minute, RetryInterval: 30 * time.Second}},
	}
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				params := daemon.DefaultParams()
				params.Mount = arm.mount
				p := pool.New(pool.Config{Seed: 1, Params: params,
					Machines: pool.UniformMachines(4, 2048)})
				p.SubmitJava(8, pool.UniformCompute(10*time.Minute))
				p.Engine.After(5*time.Minute, func() { p.Schedd.SubmitFS.SetOffline(true) })
				p.Engine.After(35*time.Minute, func() { p.Schedd.SubmitFS.SetOffline(false) })
				p.Run(24 * time.Hour)
			}
		})
	}
}

// --- Substrate micro-benchmarks ---

func BenchmarkClassAdParse(b *testing.B) {
	b.ReportAllocs()
	src := `[ Machine = "c01"; Memory = 2048; HasJava = true;
		Requirements = LoadAvg < 0.3 && target.ImageSize <= Memory;
		Rank = target.Department == "CS" ? 10 : 0; LoadAvg = 0.05 ]`
	for i := 0; i < b.N; i++ {
		if _, err := classad.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClassAdMatch(b *testing.B) {
	b.ReportAllocs()
	job, _ := classad.Parse(`[ ImageSize = 128; Department = "CS";
		Requirements = target.HasJava && target.Memory >= my.ImageSize;
		Rank = target.Memory ]`)
	machine, _ := classad.Parse(`[ Machine = "c01"; Memory = 2048;
		HasJava = true; LoadAvg = 0.05;
		Requirements = LoadAvg < 0.3 && target.ImageSize <= Memory ]`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !classad.Match(job, machine) {
			b.Fatal("no match")
		}
	}
}

// BenchmarkNegotiateWave is one arrival wave through the matchmaker
// that ships: the whole pool re-advertises (every eighth machine lacks
// Java), n identical-but-for-owner Java jobs advertise, and one
// negotiation cycle matches them, notifications delivered.
func BenchmarkNegotiateWave(b *testing.B) {
	for _, n := range []int{16, 128, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			eng := sim.New(1)
			bus := sim.NewBus(eng, 0)
			params := daemon.DefaultParams()
			params.NegotiationInterval = 1000 * time.Hour
			params.MachineAdLifetime = 10000 * time.Hour
			m := daemon.NewMatchmaker(bus, params)
			bus.Register("schedd", sim.ActorFunc(func(sim.Message) {}))
			names := make([]string, n)
			machineAds := make([]*classad.Ad, n)
			jobAds := make([]*classad.Ad, n)
			for i := range machineAds {
				names[i] = fmt.Sprintf("m%04d", i)
				ad := classad.NewAd()
				ad.SetString("Machine", names[i])
				ad.SetString("Arch", "X86_64")
				ad.SetString("OpSys", "LINUX")
				ad.SetInt("Memory", int64(512+i))
				ad.SetBool("HasJava", i%8 != 0)
				ad.SetString("State", "Unclaimed")
				ad.Precompile()
				machineAds[i] = ad
				jobAds[i] = daemon.NewJavaJobAd(fmt.Sprintf("u%d", i%4), 128)
				jobAds[i].Precompile()
			}
			b.ResetTimer()
			for k := 0; k < b.N; k++ {
				for i, ad := range machineAds {
					m.AdvertiseMachine(names[i], ad)
				}
				for i, ad := range jobAds {
					m.AdvertiseJob("schedd", daemon.JobID(i+1), ad)
				}
				m.Negotiate()
				eng.RunUntil(eng.Now())
			}
			b.StopTimer()
			if m.MatchesMade == 0 {
				b.Fatal("no matches made")
			}
		})
	}
}

func BenchmarkChirpRPC(b *testing.B) {
	b.ReportAllocs()
	fs := vfs.New()
	fs.WriteFile("/f", make([]byte, 4096))
	srv := chirp.NewServer(&chirp.VFSBackend{FS: fs}, "k")
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c, err := chirp.Dial(addr, "k")
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	fd, err := c.Open("/f", chirp.FlagRead)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.PRead(fd, 4096, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(4096)
}

func BenchmarkRemoteIORPC(b *testing.B) {
	b.ReportAllocs()
	fs := vfs.New()
	fs.WriteFile("/f", make([]byte, 4096))
	srv := remoteio.NewServer(fs, []byte("key"))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c, err := remoteio.Dial(addr, []byte("key"))
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Read("/f", 0, 4096); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(4096)
}

func BenchmarkResultFileRoundTrip(b *testing.B) {
	b.ReportAllocs()
	res := scope.Result{
		Status:    scope.StatusEscape,
		Exception: "OutOfMemoryError",
		Scope:     scope.ScopeVirtualMachine,
		Message:   "java heap space: requested 128MB, limit 64MB",
	}
	for i := 0; i < b.N; i++ {
		enc := res.EncodeString()
		if _, err := scope.DecodeResultString(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkContractApply(b *testing.B) {
	b.ReportAllocs()
	contract := scope.NewContract("write", scope.ScopeProcess, "EnvironmentError").
		Declare("DiskFull", scope.ScopeFile).
		Declare("AccessDenied", scope.ScopeFile)
	explicit := scope.New(scope.ScopeFile, "DiskFull", "full")
	foreign := scope.New(scope.ScopeNetwork, "ConnectionLost", "reset")
	b.Run("admitted", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			contract.Apply(explicit)
		}
	})
	b.Run("escaped", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			contract.Apply(foreign)
		}
	})
}

func BenchmarkWrapperClassify(b *testing.B) {
	b.ReportAllocs()
	w := &wrapper.Wrapper{}
	exec := jvm.New(jvm.Config{HeapLimit: 1 << 20}).Execute(jvm.MemoryHog(8<<20), nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Classify(exec)
	}
}

func BenchmarkSimEngineEvents(b *testing.B) {
	b.ReportAllocs()
	eng := sim.New(1)
	var fn func()
	count := 0
	fn = func() {
		count++
		if count < b.N {
			eng.After(time.Millisecond, fn)
		}
	}
	eng.After(time.Millisecond, fn)
	b.ResetTimer()
	eng.Run()
	if count < b.N {
		b.Fatal("missing events")
	}
}

func BenchmarkPoolThroughput(b *testing.B) {
	// End-to-end scheduling throughput.  The small shape is dominated
	// by the protocol simulation; the 1024-machine shape is where the
	// negotiation cycle itself carries the run.
	shapes := []struct{ machines, jobs int }{{64, 256}, {1024, 1024}}
	for _, sh := range shapes {
		b.Run(fmt.Sprintf("m%d_j%d", sh.machines, sh.jobs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := pool.New(pool.Config{Seed: 1, Params: daemon.DefaultParams(),
					Machines: pool.UniformMachines(sh.machines, 2048)})
				p.StageSharedInput()
				p.SubmitJava(sh.jobs, pool.MixedWorkload(1, 10*time.Minute))
				p.Run(72 * time.Hour)
				if m := p.Metrics(); m.Unfinished != 0 {
					b.Fatalf("unfinished: %s", m)
				}
			}
		})
	}
	// An idle-workstation pool whose owners reclaim and release
	// machines while the workload drains: evicted jobs requeue, and
	// every job must still complete.
	b.Run("m256_j1024_churn", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := pool.New(pool.Config{Seed: 1, Params: daemon.DefaultParams(),
				Machines: pool.UniformMachines(256, 2048),
				Churn: &pool.ChurnConfig{Horizon: 2 * time.Hour, MeanUp: 10 * time.Minute,
					Downtime: 15 * time.Minute}})
			p.SubmitJava(1024, pool.UniformCompute(5*time.Minute))
			p.Run(7 * 24 * time.Hour)
			if m := p.Metrics(); m.Completed != 1024 {
				b.Fatalf("%d of 1024 jobs completed: %s", m.Completed, m)
			}
		}
	})
	// Federations: a home pool too small for its jobs (64 MB machines,
	// 128 MB ads), so every home job flocks, and 256-machine peer pools
	// the first of which runs its own load beside the flocked one.
	for _, fed := range []struct {
		name               string
		peers              int
		homeJobs, peerJobs int
	}{{"fed_2pool", 1, 512, 512}, {"fed_3pool", 2, 1024, 512}} {
		b.Run(fed.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pools := []pool.FedPoolConfig{{Name: "p1", Machines: pool.UniformMachines(16, 64)}}
				for k := 0; k < fed.peers; k++ {
					name := fmt.Sprintf("p%d", k+2)
					pools[0].FlockTo = append(pools[0].FlockTo, name)
					pools = append(pools, pool.FedPoolConfig{Name: name,
						Machines: pool.UniformMachines(256, 2048)})
				}
				f := pool.NewFederation(pool.FederationConfig{Seed: 1, Params: daemon.DefaultParams(),
					Pools: pools, FlockAfter: 2 * time.Minute})
				f.Pool("p1").SubmitJava(fed.homeJobs, pool.UniformCompute(5*time.Minute))
				f.Pool("p2").SubmitJava(fed.peerJobs, pool.UniformCompute(5*time.Minute))
				f.Run(7 * 24 * time.Hour)
				if m := f.Metrics(); m.Completed != fed.homeJobs+fed.peerJobs {
					b.Fatalf("%d of %d jobs completed: %s", m.Completed, fed.homeJobs+fed.peerJobs, m)
				}
			}
		})
	}
}
