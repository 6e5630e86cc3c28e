package daemon_test

import (
	"fmt"
	"testing"
	"time"

	"github.com/errscope/grid/internal/classad"
	"github.com/errscope/grid/internal/daemon"
	"github.com/errscope/grid/internal/jvm"
	"github.com/errscope/grid/internal/obs"
	"github.com/errscope/grid/internal/pool"
	"github.com/errscope/grid/internal/sim"
)

// The tracing layer's hot-path contract: with tracing off (nil) or
// explicitly no-op, the instrumented matchmaker and shadow cost the
// same as before the instrumentation existed.  The matchmaker's
// steady-state cycle in particular must stay at zero allocations —
// the claim the retired bench-matchmaker harness once recorded.

// traceArms enumerates the tracer configurations under test.
func traceArms() []struct {
	name string
	mk   func() obs.Tracer
} {
	return []struct {
		name string
		mk   func() obs.Tracer
	}{
		{"off", func() obs.Tracer { return nil }},
		{"nop", func() obs.Tracer { return obs.Nop }},
		{"recorder", func() obs.Tracer { return obs.NewRecorder() }},
	}
}

// steadyMatchmaker builds a matchmaker holding an unsatisfiable queue,
// the zero-allocation steady state of the negotiation fast path.
func steadyMatchmaker(tr obs.Tracer) *daemon.Matchmaker {
	eng := sim.New(1)
	bus := sim.NewBus(eng, 0)
	params := daemon.DefaultParams()
	params.NegotiationInterval = 1000 * time.Hour
	params.MachineAdLifetime = 10000 * time.Hour
	params.Trace = tr
	m := daemon.NewMatchmaker(bus, params)
	bus.Register("schedd", sim.ActorFunc(func(sim.Message) {}))
	for i := 0; i < 64; i++ {
		ad := classad.NewAd()
		ad.SetString("Machine", fmt.Sprintf("m%02d", i))
		ad.SetString("Arch", "X86_64")
		ad.SetString("OpSys", "LINUX")
		ad.SetInt("Memory", 512)
		ad.SetBool("HasJava", true)
		ad.SetString("State", "Unclaimed")
		ad.Precompile()
		m.AdvertiseMachine(fmt.Sprintf("m%02d", i), ad)
	}
	// Requirements no machine can meet: every cycle walks the queue
	// without matching.
	for i := 0; i < 64; i++ {
		m.AdvertiseJob("schedd", daemon.JobID(i+1),
			daemon.NewJavaJobAd(fmt.Sprintf("u%d", i%4), 1<<40))
	}
	m.Negotiate() // warm the scratch slices
	return m
}

// shadowRetryPool runs one simulated submit-side outage: a hard mount
// forces the shadow through ~16 paced fetch retries before the file
// system returns and the job completes.
func shadowRetryPool(tr obs.Tracer) bool {
	params := daemon.DefaultParams()
	params.Mount.Kind = daemon.MountHard
	params.Mount.RetryInterval = 30 * time.Second
	params.Mount.MaxRetryInterval = 30 * time.Second
	params.Trace = tr
	p := pool.New(pool.Config{Seed: 1, Params: params,
		Machines: []daemon.MachineConfig{{Name: "m", AdvertiseJava: true}}})
	p.Schedd.SubmitFS.SetOffline(true)
	p.SubmitJava(1, func(int) *jvm.Program { return jvm.WellBehaved(time.Minute) })
	p.Engine.After(8*time.Minute+30*time.Second, func() {
		p.Schedd.SubmitFS.SetOffline(false)
	})
	p.Run(2 * time.Hour)
	return p.AllTerminal()
}

// BenchmarkTraceOverhead measures both instrumented hot paths under
// every tracer arm; compare the off and nop rows to see the cost of
// the instrumentation itself.
func BenchmarkTraceOverhead(b *testing.B) {
	for _, arm := range traceArms() {
		arm := arm
		b.Run("matchmaker/"+arm.name, func(b *testing.B) {
			b.ReportAllocs()
			m := steadyMatchmaker(arm.mk())
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				m.Negotiate()
			}
			b.StopTimer()
			if m.MatchesMade != 0 {
				b.Fatal("steady state matched")
			}
		})
	}
	for _, arm := range traceArms() {
		arm := arm
		b.Run("shadow/"+arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				if !shadowRetryPool(arm.mk()) {
					b.Fatal("job did not finish")
				}
			}
		})
	}
}

// TestNopTracerZeroAllocDelta pins the acceptance claim directly: the
// matchmaker's steady cycle allocates nothing with tracing off, and
// the no-op tracer adds no allocations over off.
func TestNopTracerZeroAllocDelta(t *testing.T) {
	measure := func(tr obs.Tracer) float64 {
		m := steadyMatchmaker(tr)
		return testing.AllocsPerRun(200, func() { m.Negotiate() })
	}
	off := measure(nil)
	nop := measure(obs.Nop)
	if off != 0 {
		t.Errorf("steady cycle with tracing off: %v allocs/op, want 0", off)
	}
	if nop != 0 {
		t.Errorf("steady cycle with Nop tracer: %v allocs/op, want 0 (delta over off must be 0)", nop)
	}
}
