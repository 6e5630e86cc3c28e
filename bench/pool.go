package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"time"

	"github.com/errscope/grid/internal/daemon"
	"github.com/errscope/grid/internal/monitor"
	"github.com/errscope/grid/internal/obs"
	"github.com/errscope/grid/internal/pool"
)

const (
	virtualStep  = time.Minute
	virtualLimit = 30 * 24 * time.Hour
)

// poolCounters are the public counters sampled around every step of a
// traced drain.
type poolCounters struct {
	events, msgs     uint64
	appends          int
	mmCycles, mmMade int
}

func readPoolCounters(p *pool.Pool) poolCounters {
	return poolCounters{
		events:   p.Engine.Processed(),
		msgs:     p.Bus.Sent(),
		appends:  p.Schedd.Journal().Appends(),
		mmCycles: p.Matchmaker.Cycles,
		mmMade:   p.Matchmaker.MatchesMade,
	}
}

func (c poolCounters) since(b poolCounters) map[string]int64 {
	return map[string]int64{
		"sim.events":        int64(c.events - b.events),
		"sim.bus_msgs":      int64(c.msgs - b.msgs),
		"journal.appends":   int64(c.appends - b.appends),
		"daemon.mm_cycles":  int64(c.mmCycles - b.mmCycles),
		"daemon.mm_matches": int64(c.mmMade - b.mmMade),
	}
}

// poolConfig turns a spec and a seed into the pool's inputs.
func poolConfig(s poolSpec, seed int64, rec *obs.Recorder) pool.Config {
	cfg := pool.Config{
		Seed:     seed,
		Params:   daemon.DefaultParams(),
		Machines: pool.UniformMachines(s.Machines, 2048),
		Workers:  s.workers(),
	}
	if s.Faulty {
		cfg.Machines = pool.Misconfigure(cfg.Machines, s.Broken, pool.BreakBadLibraryPath, false)
		cfg.Params.CheckpointInterval = 10 * time.Minute
		cfg.Params.CheckpointOverhead = 15 * time.Second
		cfg.Params.MaxAttempts = 100
		cfg.Churn = &pool.ChurnConfig{Horizon: 48 * time.Hour, MeanUp: 30 * time.Minute, Downtime: 10 * time.Minute}
	}
	if rec != nil {
		cfg.Params.Trace = rec
	}
	return cfg
}

// runPool runs one pass of a pool workload: build, submit, drain with a
// bench-owned copy of pool.Run's loop, verify.  It returns the probes
// to run after the traced pass.
func runPool(s poolSpec, seed int64, tr *tracer, res *passResult) (probes func()) {
	root := tr.begin(0, "run")
	start := time.Now()

	var rec *obs.Recorder
	if s.Observed {
		rec = obs.NewRecorder()
	}
	id := tr.begin(root, "pool.new")
	p := pool.New(poolConfig(s, seed, rec))
	tr.end(id, nil)

	id = tr.begin(root, "daemon.submit")
	submitStart := time.Now()
	if s.Faulty {
		p.StageSharedInput()
		p.SubmitJava(s.Java, pool.MixedWorkload(seed, 5*time.Minute))
		p.SubmitStandard(s.Standard, pool.UniformCompute(45*time.Minute))
	} else {
		p.SubmitJava(s.Java, pool.UniformCompute(5*time.Minute))
	}
	submit := time.Since(submitStart)
	tr.end(id, nil)

	var mon *monitor.Monitor
	var collectors []*monitor.Collector
	if s.Observed {
		id = tr.begin(root, "monitor.attach")
		mon = monitor.Attach(p, rec, "bench")
		for i := 0; i < 2; i++ {
			c := monitor.NewCollector()
			if err := mon.Subscribe(c, 0); err != nil {
				res.failf("subscribe: %v", err)
			}
			collectors = append(collectors, c)
		}
		tr.end(id, nil)
	}
	res.emit("setup_s", time.Since(start).Seconds())

	step := func(d time.Duration) {
		if tr == nil {
			p.Engine.RunFor(d)
			return
		}
		id := tr.begin(root, "sim.step")
		before := readPoolCounters(p)
		p.Engine.RunFor(d)
		tr.end(id, readPoolCounters(p).since(before))
	}
	pump := func() {
		if mon == nil {
			return
		}
		id := tr.begin(root, "monitor.pump")
		mon.Pump()
		tr.end(id, nil)
	}

	crashes := s.Crashes
	var atRecover []int
	drainStart := time.Now()
	deadline := p.Engine.Now().Add(virtualLimit)
	for p.Engine.Now() < deadline && !p.AllTerminal() {
		step(virtualStep)
		pump()
		if len(crashes) > 0 && time.Duration(p.Engine.Now()) >= crashes[0] {
			crashes = crashes[1:]
			id := tr.begin(root, "daemon.crash")
			p.Schedd.Crash()
			tr.end(id, nil)
			step(recoverAfter)
			atRecover = append(atRecover, p.Schedd.Journal().Size())
			id = tr.begin(root, "daemon.recover")
			if err := p.Schedd.Recover(nil); err != nil {
				res.failf("recover: %v", err)
			}
			tr.end(id, nil)
		}
	}
	pump()
	drain := time.Since(drainStart)

	id = tr.begin(root, "bench.check")
	m := p.Metrics()
	res.Attempted = m.Jobs
	res.Failed = m.Unfinished + m.IncidentalLeaks
	if m.Jobs != s.jobs() {
		res.failf("%d jobs in the queue, %d submitted", m.Jobs, s.jobs())
	}
	if m.Unfinished != 0 || m.IncidentalLeaks != 0 {
		res.failf("%d jobs without a final disposition, %d incidental leaks", m.Unfinished, m.IncidentalLeaks)
	}
	if len(crashes) != 0 {
		res.failf("the queue drained before %d of the planned crashes", len(crashes))
	}
	res.Digest = poolDigest(p)
	var recorded []obs.Event
	if s.Observed {
		recorded = rec.Events()
		res.Failed += checkStream(res, mon, recorded, collectors)
	}
	tr.end(id, nil)
	tr.end(root, nil)
	res.emit("throughput_per_s", float64(m.Jobs-m.Unfinished)/drain.Seconds())
	if tr == nil {
		return nil
	}

	emitPoolLayers(res, tr, p, m, s, drain, submit, atRecover)
	if s.Observed {
		emitOpsLayers(res, tr, mon, len(recorded), drain, m.Jobs)
	}
	// The probes keep the run's artifacts — its journal and recording —
	// and its counts, not the pool: the collector should not have a
	// finished pool to mark while a probe is timed.
	log := p.Schedd.Journal().Bytes()
	counts := readPoolCounters(p)
	return func() {
		probePoolLayers(res, log, counts, drain)
		if s.Observed {
			probeOpsLayers(res, rec, drain)
		}
	}
}

// poolDigest hashes every job's full event log in queue order — the
// byte-exact record of what the pool decided and when.
func poolDigest(p *pool.Pool) string {
	h := sha256.New()
	for _, s := range p.Schedds {
		for _, j := range s.Jobs() {
			fmt.Fprintf(h, "== %s job %d %s\n", s.Name(), j.ID, j.State)
			io.WriteString(h, j.EventLog())
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkStream verifies that no subscriber was dropped and that each
// collector holds exactly the recorded events; it returns the number
// of failures to count.
func checkStream(res *passResult, mon *monitor.Monitor, want []obs.Event, collectors []*monitor.Collector) int {
	failed := mon.Dropped()
	if failed != 0 {
		res.failf("%d monitor subscribers dropped", failed)
	}
	for i, c := range collectors {
		got := c.Events()
		if len(got) != len(want) {
			res.failf("collector %d holds %d events, the recorder %d", i, len(got), len(want))
			failed++
			continue
		}
		for k := range want {
			if got[k] != want[k] {
				res.failf("collector %d event %d differs from the record", i, k)
				failed++
				break
			}
		}
	}
	return failed
}

func mb(bytes int) float64 { return float64(bytes) / (1 << 20) }

// emitPoolLayers reports the counts and spans of a traced pool pass.
func emitPoolLayers(res *passResult, tr *tracer, p *pool.Pool, m pool.Metrics, s poolSpec,
	drain, submit time.Duration, atRecover []int) {
	steps := tr.named("sim.step")
	stepMS := sortedCopy(durationsMS(steps))
	events := p.Engine.Processed()
	res.emit("sim.events", float64(events))
	res.emit("sim.virtual_min", time.Duration(p.Engine.Now()).Minutes())
	res.emit("sim.bus_msgs", float64(m.MessagesSent))
	res.emit("sim.bus_lost", float64(m.MessagesLost))
	res.emit("sim.bus_msgs_per_job", float64(m.MessagesSent)/float64(m.Jobs))
	res.emit("sim.host_ns_per_event", float64(sumDur(steps))/float64(events))
	res.emit("sim.step_p50_ms", quantile(stepMS, 0.5))
	res.emit("sim.step_max_ms", stepMS[len(stepMS)-1])
	if s.Parallel {
		segments, shards := p.Engine.SegmentStats()
		res.emit("sim.par_segments", float64(segments))
		res.emit("sim.par_shards_per_segment", float64(shards)/float64(max(segments, 1)))
	}

	mm := p.Matchmaker
	res.emit("daemon.mm_cycles", float64(mm.Cycles))
	res.emit("daemon.mm_matches", float64(mm.MatchesMade))
	res.emit("daemon.mm_cluster_scans", float64(mm.ClusterScans))
	res.emit("daemon.mm_prefilter_skips", float64(mm.PrefilterSkips))
	res.emit("daemon.mm_no_matches", float64(mm.NoMatches))
	res.emit("daemon.attempts", float64(m.Attempts))
	res.emit("daemon.requeues", float64(m.Requeues))
	res.emit("daemon.evictions", float64(m.Evictions))
	res.emit("daemon.held", float64(m.Held))
	res.emit("daemon.goodput_frac", m.GoodputFraction())
	res.emit("daemon.submit_s", submit.Seconds())

	j := p.Schedd.Journal()
	res.emit("journal.appends", float64(j.Appends()))
	res.emit("journal.compactions", float64(j.Compactions()))
	res.emit("journal.bytes_mb", mb(j.Size()))

	res.Shares = map[string]float64{}
	if len(s.Crashes) > 0 {
		recovers := tr.named("daemon.recover")
		res.emit("daemon.recover_s", sumDur(recovers).Seconds()/float64(len(recovers)))
		total := 0
		for _, n := range atRecover {
			total += n
		}
		res.emit("journal.bytes_at_recover_mb", mb(total)/float64(len(atRecover)))
		res.Shares["daemon.recover"] = sumDur(recovers).Seconds() / drain.Seconds()
	}
}

// emitOpsLayers reports what observing the pool cost.
func emitOpsLayers(res *passResult, tr *tracer, mon *monitor.Monitor, recorded int, drain time.Duration, jobs int) {
	pumps := tr.named("monitor.pump")
	pumpMS := sortedCopy(durationsMS(pumps))
	total := sumDur(pumps)
	res.emit("obs.events", float64(recorded))
	res.emit("obs.events_per_job", float64(recorded)/float64(jobs))
	res.emit("monitor.pump_s", total.Seconds())
	res.emit("monitor.pump_p50_ms", quantile(pumpMS, 0.5))
	res.emit("monitor.pump_max_ms", pumpMS[len(pumpMS)-1])
	res.emit("monitor.share", total.Seconds()/drain.Seconds())
	res.emit("monitor.delivered", float64(mon.Delivered()))
	res.emit("monitor.dropped", float64(mon.Dropped()))
	res.emit("monitor.ns_per_delivery", float64(total)/float64(max(mon.Delivered(), 1)))
	res.Shares["monitor.pump"] = total.Seconds() / drain.Seconds()
}
