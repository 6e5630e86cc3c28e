package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"
)

// The registry is the single list of what the benchmark runs and what
// it reports.  BENCHMARK.json at the repository root repeats the names;
// TestBenchmarkJSONMatchesRegistry fails when the two drift.

// Workload classes.  A per-layer metric is defined on a workload when
// their class masks intersect; everywhere else the layer is idle and
// the metric reads 0.
const (
	onPool   = 1 << iota // every pool-* workload
	onPar                // the sharded engine
	onFaulty             // schedd crash/recover cycles
	onOps                // obs recorder + monitor attached
	onIO                 // io-*
	onAll    = onPool | onIO
)

// poolSpec sizes one pool workload.  The sizes in workloads below are
// constants, not flags, so that numbers stay comparable across commits;
// the tests call runPool with small specs directly.
type poolSpec struct {
	Machines int
	// Broken machines advertise Java with a bad library path: the
	// paper's black holes.
	Broken   int
	Java     int
	Standard int
	// Faulty selects the paper's pool: mixed programs (some with bugs
	// that must reach the user), checkpoints with overhead, churn.
	Faulty bool
	// Crashes takes the schedd down at each of these virtual instants
	// and recovers it from its journal recoverAfter later.
	Crashes []time.Duration
	// Observed records the run with obs and streams it through a
	// monitor to two collectors, pumped every virtual minute.
	Observed bool
	// Parallel runs the sharded engine with min(nproc, 4) workers.
	Parallel bool
}

func (s poolSpec) jobs() int { return s.Java + s.Standard }

func (s poolSpec) workers() int {
	if !s.Parallel {
		return 0
	}
	return min(runtime.NumCPU(), 4)
}

func (s poolSpec) String() string {
	return fmt.Sprintf("machines=%d broken=%d java=%d standard=%d crashes=%d workers=%d",
		s.Machines, s.Broken, s.Java, s.Standard, len(s.Crashes), max(s.workers(), 1))
}

// ioSpec sizes one Figure-2 chain workload; every leg runs Warmup
// untimed and Ops timed operations on its own fresh chain.
type ioSpec struct {
	FileSize int
	Warmup   int
	Ops      int
	// Bulk alternates 32 KiB PRead/PWrite at 4 KiB-aligned offsets;
	// otherwise the mix is 45 % PRead, 45 % PWrite of 64 B, 10 % Stat.
	Bulk bool
}

func (s ioSpec) String() string {
	return fmt.Sprintf("file=%dKiB warmup=%d ops_per_leg=%d legs=%d", s.FileSize>>10, s.Warmup, s.Ops, len(legs))
}

type workload struct {
	Name  string
	Why   string
	class int
	pool  *poolSpec
	io    *ioSpec
	// digestOf names the workload whose digest this one must
	// reproduce (the serial twin of the parallel run).
	digestOf string
}

func (w workload) sizes() string {
	if w.pool != nil {
		return w.pool.String()
	}
	return w.io.String()
}

const recoverAfter = 30 * time.Second

var crashTimes = []time.Duration{45 * time.Minute, 90 * time.Minute, 135 * time.Minute}

// workloads are the seven design points.  Job and op counts are the
// issue's sizing halved until one pass takes about three seconds on
// the 2-core reference host, so that a ten-second run holds three or
// four passes and reports their median; machine counts and mixes are
// the issue's, and pool-ops is not shrunk (see README, "Sizes").
var workloads = []workload{
	{
		Name:  "pool-wide",
		Why:   "10240 machines, 40960 five-minute Java jobs, serial engine: 10k startd timers keep the event heap deep and every cycle ranks the whole pool; heap, GC and ad ingest dominate",
		class: onPool,
		pool:  &poolSpec{Machines: 10240, Java: 40960},
	},
	{
		Name:     "pool-wide-par",
		Why:      "pool-wide's inputs on the sharded engine with min(nproc,4) workers; its digest must equal the serial run's. The only workload a parallel-engine gain can be claimed on",
		class:    onPool | onPar,
		pool:     &poolSpec{Machines: 10240, Java: 40960, Parallel: true},
		digestOf: "pool-wide",
	},
	{
		Name:  "pool-deep",
		Why:   "1024 machines, 24576 Java jobs in 24 waves, serial: the queue stays deep, so idle-job ad refresh (schedd to bus to matchmaker) dominates and ranking 1k machines is minor",
		class: onPool,
		pool:  &poolSpec{Machines: 1024, Java: 24576},
	},
	{
		Name:  "pool-faulty",
		Why:   "the paper's pool: 2048 machines (128 black holes), churn, checkpoints, 8192 mixed Java + 2048 standard jobs, three schedd crashes; requeues, evictions and journal replay do the work",
		class: onPool | onFaulty,
		pool:  &poolSpec{Machines: 2048, Broken: 128, Java: 8192, Standard: 2048, Faulty: true, Crashes: crashTimes},
	},
	{
		Name:  "pool-ops",
		Why:   "the same kind of pool (1024 machines, 8192+2048 jobs, no crashes) recorded by obs and streamed to two monitor collectors every virtual minute; obs and monitor do about 80 % of the work",
		class: onPool | onOps,
		pool:  &poolSpec{Machines: 1024, Broken: 64, Java: 8192, Standard: 2048, Faulty: true, Observed: true},
	},
	{
		Name:  "io-small",
		Why:   "Figure-2 chain on loopback, one closed-loop client, 64-byte PRead/PWrite/Stat mix over text, binary and secure legs: per-frame cost dominates and bytes are negligible",
		class: onIO,
		io:    &ioSpec{FileSize: 1 << 20, Warmup: 2000, Ops: 37500},
	},
	{
		Name:  "io-bulk",
		Why:   "same chain and legs, alternating 32 KiB PRead/PWrite on a 16 MiB file: per-byte cost (CRC-32C, AES-GCM, copies, bufio) dominates",
		class: onIO,
		io:    &ioSpec{FileSize: 16 << 20, Warmup: 500, Ops: 10000, Bulk: true},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	higher = "higher"
	lower  = "lower"
)

// e2eMetric is one end-to-end metric.  Every workload reports every
// one of them, and none can read 0.
type e2eMetric struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which the metric
	// may get worse before a change counts as a regression.
	Bound float64
}

var endToEnd = []e2eMetric{
	// pool-*: jobs with a final disposition per host second of the
	// drain loop.  io-*: timed RPCs of all three legs per host second.
	{"throughput_per_s", "1/s", higher, 0.15},
	// Everything before the measured region; see README.
	{"setup_s", "s", lower, 0.25},
	// VmHWM of the process that ran the pass.
	{"peak_rss_mb", "MB", lower, 0.25},
}

// layerMetric is one per-layer metric of the traced run.
type layerMetric struct {
	Name   string
	Unit   string
	Better string
	// On is the mask of workload classes the metric is defined on.
	On int
	// Exact marks a count that repeats exactly for a seed: two commits
	// compare exactly, and a change meant only to speed the program up
	// must leave it identical.
	Exact bool
}

// legs are the three transports of the Figure-2 chain, in run order.
var legs = []string{"legacy", "framed", "secure"}

var perLayer = buildPerLayer()

func buildPerLayer() []layerMetric {
	var m []layerMetric
	add := func(ms ...layerMetric) { m = append(m, ms...) }
	// Lower is better unless said otherwise; a count is exact.
	some := func(exact bool, on int, unit string, names ...string) []layerMetric {
		out := make([]layerMetric, len(names))
		for i, n := range names {
			out[i] = layerMetric{n, unit, lower, on, exact}
		}
		return out
	}
	count := func(on int, unit string, names ...string) []layerMetric { return some(true, on, unit, names...) }
	timed := func(on int, unit string, names ...string) []layerMetric { return some(false, on, unit, names...) }

	add(count(onPool, "count", "sim.events", "sim.bus_msgs", "sim.bus_lost")...)
	add(count(onPool, "min", "sim.virtual_min")...)
	add(count(onPool, "1/job", "sim.bus_msgs_per_job")...)
	add(timed(onPool, "ns", "sim.host_ns_per_event")...)
	add(timed(onPool, "ms", "sim.step_p50_ms", "sim.step_max_ms")...)
	add(timed(onPool, "ns", "sim.probe_timer_ns_10k", "sim.probe_timer_ns_100k", "sim.probe_msg_ns")...)
	add(count(onPar, "count", "sim.par_segments")...)
	add(layerMetric{"sim.par_shards_per_segment", "ratio", higher, onPar, true})

	add(timed(onPool, "ns", "classad.probe_parse_ns", "classad.probe_match_ns")...)
	add(timed(onPool, "count", "classad.probe_match_allocs")...)

	add(count(onPool, "count", "daemon.mm_cycles", "daemon.mm_matches", "daemon.mm_cluster_scans",
		"daemon.mm_prefilter_skips", "daemon.mm_no_matches", "daemon.attempts", "daemon.requeues",
		"daemon.evictions", "daemon.held")...)
	add(layerMetric{"daemon.goodput_frac", "ratio", higher, onPool, true})
	add(timed(onPool, "ms", "daemon.probe_negotiate_ms_10k")...)
	add(timed(onPool, "ns", "daemon.probe_job_ad_refresh_ns")...)
	add(timed(onPool, "s", "daemon.submit_s")...)
	add(timed(onFaulty, "s", "daemon.recover_s")...)

	add(count(onPool, "count", "journal.appends", "journal.compactions")...)
	add(count(onPool, "MB", "journal.bytes_mb")...)
	add(count(onFaulty, "MB", "journal.bytes_at_recover_mb")...)
	add(timed(onPool, "ns", "journal.probe_append_ns")...)
	add(layerMetric{"journal.probe_decode_mb_per_s", "MB/s", higher, onPool, false})

	add(count(onOps, "count", "obs.events")...)
	add(count(onOps, "1/job", "obs.events_per_job")...)
	add(timed(onOps, "ns", "obs.probe_emit_ns")...)
	add(timed(onOps, "ms", "obs.probe_events_copy_ms")...)
	add(layerMetric{"obs.probe_jsonl_mb_per_s", "MB/s", higher, onOps, false})

	add(timed(onOps, "s", "monitor.pump_s")...)
	add(timed(onOps, "ms", "monitor.pump_p50_ms", "monitor.pump_max_ms")...)
	add(timed(onOps, "ratio", "monitor.share")...)
	add(count(onOps, "count", "monitor.delivered", "monitor.dropped")...)
	add(timed(onOps, "ns", "monitor.ns_per_delivery", "monitor.probe_encode_ns", "monitor.probe_parse_ns")...)

	add(timed(onIO, "ns", "wire.probe_frame_ns_64", "wire.probe_frame_ns_32k",
		"wire.probe_session_ns_64_binary", "wire.probe_session_ns_64_secure",
		"wire.probe_session_ns_32k_binary", "wire.probe_session_ns_32k_secure")...)
	add(timed(onIO, "us", "wire.probe_handshake_us_secure",
		"chirp.probe_rtt_us_text", "chirp.probe_rtt_us_binary",
		"remoteio.probe_rtt_us_text", "remoteio.probe_rtt_us_binary", "remoteio.probe_rtt_us_secure")...)
	for _, leg := range legs {
		add(layerMetric{"chirp.ops_per_s_" + leg, "1/s", higher, onIO, false})
		add(timed(onIO, "us", "chirp.op_p50_us_"+leg, "chirp.op_p99_us_"+leg)...)
		add(timed(onIO, "1/op", "chirp.syscalls_per_op_"+leg)...)
		add(count(onIO, "B/op", "chirp.bytes_per_op_"+leg)...)
	}
	add(timed(onIO, "ns", "vfs.probe_readat_ns_32k", "vfs.probe_writeat_ns_32k")...)

	add(timed(onAll, "MB", "go.alloc_mb")...)
	add(timed(onAll, "count", "go.gc_cycles")...)
	add(timed(onAll, "ms", "go.gc_pause_ms")...)
	add(timed(onAll, "ratio", "go.gc_cpu_frac", "trace.overhead_frac")...)
	add(layerMetric{"trace.child_cover_frac", "ratio", higher, onAll, false})
	return m
}

// benchmarkJSON renders the registry as BENCHMARK.json, the contract
// file at the repository root (bench -benchmark-json > BENCHMARK.json).
func benchmarkJSON() []byte {
	type namedWhy struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type unbounded struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	file := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []namedWhy  `json:"workloads"`
		EndToEnd   []bounded   `json:"end_to_end"`
		PerLayer   []unbounded `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		file.Workloads = append(file.Workloads, namedWhy{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		file.EndToEnd = append(file.EndToEnd, bounded{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		file.PerLayer = append(file.PerLayer, unbounded{m.Name, m.Unit, m.Better})
	}
	b, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		panic(err) // only strings and numbers: cannot fail
	}
	return append(b, '\n')
}
