package grid

import (
	"testing"
	"time"

	"github.com/errscope/grid/internal/daemon"
	"github.com/errscope/grid/internal/experiments"
	"github.com/errscope/grid/internal/javaio"
	"github.com/errscope/grid/internal/jvm"
	"github.com/errscope/grid/internal/live"
	"github.com/errscope/grid/internal/scope"
	"github.com/errscope/grid/internal/submit"
	"github.com/errscope/grid/internal/vfs"
	"github.com/errscope/grid/internal/wrapper"
)

func BenchmarkCrashesExperiment(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := experiments.Crashes(1, 8, 24, 0.25,
			[]time.Duration{30 * time.Minute})
		if len(r.Rows) != 1 {
			b.Fatal("bad report")
		}
	}
}

func BenchmarkVFSReadWrite(b *testing.B) {
	b.ReportAllocs()
	fs := vfs.New()
	data := make([]byte, 4096)
	fs.WriteFile("/f", data)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fs.WriteAt("/f", 0, data); err != nil {
			b.Fatal(err)
		}
		if _, err := fs.ReadAt("/f", 0, 4096); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(8192)
}

func BenchmarkJavaIOConvert(b *testing.B) {
	b.ReportAllocs()
	lib := javaio.New(javaio.TransportFunc{})
	explicit := scope.New(scope.ScopeFile, "FileNotFound", "/x")
	offline := scope.New(scope.ScopeLocalResource, "FileSystemOffline", "down")
	b.Run("explicit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			lib.Convert(explicit)
		}
	})
	b.Run("escape", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			lib.Convert(offline)
		}
	})
}

func BenchmarkSubmitParse(b *testing.B) {
	b.ReportAllocs()
	src := `
universe     = java
executable   = /home/alice/Sim.class
owner        = alice
image_size   = 256
requirements = target.Memory >= 512 && target.HasJava
rank         = target.Memory
+Department  = "CS"
sim_compute  = 10m
sim_read     = /home/alice/input.dat 4096
sim_write    = /home/alice/output.dat results
queue 10
`
	for i := 0; i < b.N; i++ {
		f, err := submit.Parse(src)
		if err != nil || len(f.Jobs) != 10 {
			b.Fatal(err)
		}
	}
}

func BenchmarkJVMExecute(b *testing.B) {
	b.ReportAllocs()
	m := jvm.New(jvm.Config{})
	prog := &jvm.Program{Class: "M", Steps: []jvm.Step{
		jvm.Allocate{Bytes: 1 << 20},
		jvm.Compute{Duration: time.Minute},
		jvm.Free{Bytes: 1 << 20},
		jvm.Exit{Code: 0},
	}}
	for i := 0; i < b.N; i++ {
		if exec := m.Execute(prog, nil); exec.ExitCode != 0 {
			b.Fatal("bad exit")
		}
	}
}

// BenchmarkWrapperAblation contrasts the two result paths of
// DESIGN.md's first ablation: the raw JVM exit interpretation against
// the wrapper's result-file round trip (classify, encode to the
// scratch file system, decode on the starter side).
func BenchmarkWrapperAblation(b *testing.B) {
	b.ReportAllocs()
	m := jvm.New(jvm.Config{HeapLimit: 1 << 20})
	prog := jvm.MemoryHog(8 << 20)
	b.Run("raw-exit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			exec := m.Execute(prog, nil)
			res := wrapper.RawExitInterpretation(exec)
			if res.ExitCode != 1 {
				b.Fatal("bad exit")
			}
		}
	})
	b.Run("wrapper-resultfile", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			scratch := vfs.New()
			w := &wrapper.Wrapper{}
			w.Run(m, prog, nil, scratch)
			res := wrapper.ReadResult(scratch)
			if res.Scope != scope.ScopeVirtualMachine {
				b.Fatal("bad scope")
			}
		}
	})
}

// BenchmarkLiveKernelJob measures one job end-to-end on the
// wall-clock runtime (dominated by real protocol intervals; reported
// per job).
func BenchmarkLiveKernelJob(b *testing.B) {
	b.ReportAllocs()
	r := live.New(50 * time.Microsecond)
	defer r.Close()
	params := daemon.DefaultParams()
	params.NegotiationInterval = 2 * time.Millisecond
	params.AdInterval = 2 * time.Millisecond
	params.StartupOverhead = 100 * time.Microsecond
	params.RequeueBackoff = time.Millisecond
	params.ResultTimeout = 5 * time.Second

	daemon.NewMatchmaker(r, params)
	var schedd *daemon.Schedd
	r.Do(func() {
		schedd = daemon.NewSchedd(r, params, "schedd")
		daemon.NewStartd(r, params, daemon.MachineConfig{
			Name: "m1", Memory: 2048, AdvertiseJava: true,
		})
		schedd.SubmitFS.WriteFile("/x.class", []byte("b"))
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var id daemon.JobID
		r.Do(func() {
			id = schedd.Submit(&daemon.Job{
				Owner: "u", Ad: daemon.NewJavaJobAd("u", 128),
				Program: jvm.WellBehaved(time.Millisecond), Executable: "/x.class",
			})
		})
		for done := false; !done; {
			r.Do(func() { done = schedd.Job(id).State.Terminal() })
			if !done {
				time.Sleep(500 * time.Microsecond)
			}
		}
	}
}
