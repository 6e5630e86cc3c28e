package main

import (
	"math/rand"
	"runtime"
	"time"

	"github.com/errscope/grid/internal/classad"
	"github.com/errscope/grid/internal/daemon"
	"github.com/errscope/grid/internal/journal"
	"github.com/errscope/grid/internal/monitor"
	"github.com/errscope/grid/internal/obs"
	"github.com/errscope/grid/internal/pool"
	"github.com/errscope/grid/internal/sim"
)

// A probe drives one layer's public functions in isolation, after the
// traced pass, on the workload's own artifacts where it has any.  A
// probe's number times the layer's count, over the measured region, is
// the layer's estimated share: an estimate, because true self time
// needs spans inside the program.

const (
	probeRounds = 5
	probeRound  = 10 * time.Millisecond
)

// medianNS times rounds calls of round, each doing n operations, and
// returns the median nanoseconds per operation.
func medianNS(rounds, n int, round func()) float64 {
	per := make([]float64, rounds)
	for i := range per {
		start := time.Now()
		round()
		per[i] = float64(time.Since(start)) / float64(n)
	}
	return median(per)
}

// perOp finds how many calls of fn fill one round, then reports the
// median nanoseconds per call over probeRounds rounds.
func perOp(fn func()) float64 {
	n := 1
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if time.Since(start) >= probeRound || n >= 1<<22 {
			break
		}
		n *= 2
	}
	return medianNS(probeRounds, n, func() {
		for i := 0; i < n; i++ {
			fn()
		}
	})
}

func allocsPerOp(n int, fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// probeTimer is After plus fire with the event heap held at depth: the
// classic hold model, new timers uniform over the next virtual hour.
func probeTimer(depth int) float64 {
	eng := sim.New(1)
	rng := rand.New(rand.NewSource(1))
	noop := func() {}
	arm := func() { eng.After(time.Duration(1+rng.Int63n(int64(time.Hour))), noop) }
	for i := 0; i < depth; i++ {
		arm()
	}
	return perOp(func() {
		arm()
		eng.Step()
	})
}

// probeMsg is Bus.Send to a no-op actor plus the delivery.
func probeMsg() float64 {
	eng := sim.New(1)
	bus := sim.NewBus(eng, 5*time.Millisecond)
	bus.Register("sink", sim.ActorFunc(func(sim.Message) {}))
	return perOp(func() {
		bus.Send("probe", "sink", "probe", nil)
		eng.Step()
	})
}

// machineAd is the ad a healthy startd advertises.
func machineAd(name string) *classad.Ad {
	ad := classad.NewAd()
	ad.SetString("Machine", name)
	ad.SetString("Arch", "X86_64")
	ad.SetString("OpSys", "LINUX")
	ad.SetInt("Memory", 2048)
	ad.SetBool("HasJava", true)
	ad.SetString("JavaVersion", "1.4")
	ad.SetString("State", "Unclaimed")
	ad.Precompile()
	return ad
}

// probeMatchmaker builds a matchmaker whose periodic cycle and ad
// expiry stay out of the measurement, with a sink for notifications.
func probeMatchmaker() (*sim.Engine, *daemon.Matchmaker) {
	eng := sim.New(1)
	bus := sim.NewBus(eng, 0)
	params := daemon.DefaultParams()
	params.NegotiationInterval = 1000 * time.Hour
	params.MachineAdLifetime = 10000 * time.Hour
	params.JobAdLifetime = 10000 * time.Hour
	bus.Register("schedd", sim.ActorFunc(func(sim.Message) {}))
	return eng, daemon.NewMatchmaker(bus, params)
}

const negotiateSize = 10240

// probeNegotiate is one full cycle at the wide pool's size: every
// machine and as many jobs advertise, then the matchmaker negotiates.
// It returns milliseconds per cycle.
func probeNegotiate() float64 {
	eng, mm := probeMatchmaker()
	names := make([]string, negotiateSize)
	machines := make([]*classad.Ad, negotiateSize)
	jobs := make([]*classad.Ad, negotiateSize)
	for i, mc := range pool.UniformMachines(negotiateSize, 2048) {
		names[i] = mc.Name
		machines[i] = machineAd(mc.Name)
		jobs[i] = daemon.NewJavaJobAd("user", 128)
	}
	return medianNS(3, 1, func() {
		for i, ad := range machines {
			mm.AdvertiseMachine(names[i], ad)
		}
		for i, ad := range jobs {
			mm.AdvertiseJob("schedd", daemon.JobID(i+1), ad)
		}
		mm.Negotiate()
		eng.RunUntil(eng.Now()) // deliver the notifications
	}) / 1e6
}

// probeJobAdRefresh is AdvertiseJob of a job the matchmaker already
// knows: what every idle job costs it every AdInterval.
func probeJobAdRefresh() float64 {
	_, mm := probeMatchmaker()
	const known = 1024
	ads := make([]*classad.Ad, known)
	for i := range ads {
		ads[i] = daemon.NewJavaJobAd("user", 128)
		mm.AdvertiseJob("schedd", daemon.JobID(i+1), ads[i])
	}
	i := 0
	return perOp(func() {
		mm.AdvertiseJob("schedd", daemon.JobID(i+1), ads[i])
		i = (i + 1) % known
	})
}

// probeJournalAppend is one group commit of eight 128-byte records.
func probeJournalAppend() float64 {
	batch := make([][]byte, 8)
	for i := range batch {
		batch[i] = make([]byte, 128)
	}
	const n = 4096
	return medianNS(probeRounds, n, func() {
		j := journal.New()
		for i := 0; i < n; i++ {
			j.AppendBatch(batch)
		}
	})
}

// mbPerS times rounds calls of fn over the same bytes.
func mbPerS(bytes, rounds int, fn func()) float64 {
	if bytes == 0 {
		return 0
	}
	ns := medianNS(rounds, 1, fn)
	return mb(bytes) / (ns / 1e9)
}

// probePoolLayers runs the sim, classad, daemon and journal probes —
// the journal's over log, the finished run's own — and derives the
// estimated shares of the drain.
func probePoolLayers(res *passResult, log []byte, c poolCounters, drain time.Duration) {
	timer10k := probeTimer(10_000)
	res.emit("sim.probe_timer_ns_10k", timer10k)
	res.emit("sim.probe_timer_ns_100k", probeTimer(100_000))
	msg := probeMsg()
	res.emit("sim.probe_msg_ns", msg)

	jobAd := daemon.NewJavaJobAd("user", 128)
	src := jobAd.String()
	if _, err := classad.Parse(src); err != nil {
		res.failf("classad probe: rendered job ad does not parse: %v", err)
	}
	res.emit("classad.probe_parse_ns", perOp(func() { _, _ = classad.Parse(src) }))
	jobAd.Precompile()
	machine := machineAd("c00000")
	if !classad.Match(jobAd, machine) {
		res.failf("classad probe: the job ad does not match a healthy machine")
	}
	res.emit("classad.probe_match_ns", perOp(func() { classad.Match(jobAd, machine) }))
	res.emit("classad.probe_match_allocs", allocsPerOp(10_000, func() { classad.Match(jobAd, machine) }))

	negotiate := probeNegotiate()
	res.emit("daemon.probe_negotiate_ms_10k", negotiate)
	res.emit("daemon.probe_job_ad_refresh_ns", probeJobAdRefresh())

	appendNS := probeJournalAppend()
	res.emit("journal.probe_append_ns", appendNS)
	res.emit("journal.probe_decode_mb_per_s", mbPerS(len(log), probeRounds, func() { journal.Decode(log) }))

	ns := float64(drain)
	res.Shares["est. sim.heap"] = timer10k * float64(c.events) / ns
	res.Shares["est. sim.bus"] = msg * float64(c.msgs) / ns
	res.Shares["est. daemon.negotiate"] = negotiate * 1e6 / negotiateSize * float64(c.mmMade) / ns
	res.Shares["est. journal.append"] = appendNS / 8 * float64(c.appends) / ns
	res.Shares["go.gc"] = res.Metrics["go.gc_cpu_frac"]
}

type countingWriter struct{ n int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// probeOpsLayers runs the obs and monitor probes on the finished run's
// own recording.
func probeOpsLayers(res *passResult, rec *obs.Recorder, drain time.Duration) {
	events := rec.Events()
	if len(events) == 0 {
		res.failf("obs probe: the observed run recorded no events")
		return
	}
	const emits = 1 << 16
	emitNS := medianNS(probeRounds, emits, func() {
		r := obs.NewRecorder()
		for i := 0; i < emits; i++ {
			r.Emit(events[i%len(events)])
		}
	})
	res.emit("obs.probe_emit_ns", emitNS)
	res.emit("obs.probe_events_copy_ms", medianNS(probeRounds, 1, func() { rec.Events() })/1e6)

	var cw countingWriter
	var jsonlErr error
	start := time.Now()
	jsonlErr = rec.WriteJSONL(&cw, obs.ExportOptions{})
	if jsonlErr != nil {
		res.failf("obs probe: %v", jsonlErr)
	}
	res.emit("obs.probe_jsonl_mb_per_s", mb(cw.n)/time.Since(start).Seconds())

	sample := events[:min(len(events), 1<<15)]
	lines := make([]string, len(sample))
	res.emit("monitor.probe_encode_ns", medianNS(probeRounds, len(sample), func() {
		for i, ev := range sample {
			lines[i] = monitor.EncodeEvent(ev)
		}
	}))
	var parseErr error
	res.emit("monitor.probe_parse_ns", medianNS(probeRounds, len(sample), func() {
		for _, line := range lines {
			if _, err := monitor.ParseEvent(line); err != nil {
				parseErr = err
			}
		}
	}))
	if parseErr != nil {
		res.failf("monitor probe: %v", parseErr)
	}
	res.Shares["est. obs.emit"] = emitNS * float64(len(events)) / float64(drain)
}
