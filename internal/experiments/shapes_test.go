package experiments

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/errscope/grid/internal/daemon"
	"github.com/errscope/grid/internal/journal"
	"github.com/errscope/grid/internal/monitor"
	"github.com/errscope/grid/internal/obs"
	"github.com/errscope/grid/internal/pool"
	"github.com/errscope/grid/internal/record"
	"github.com/errscope/grid/internal/sim"
)

// The shape table: every kind of whole pool the simulator runs —
// uniform, deep, faulty, monitored, federated, churned — at two tiny
// sizes.  Each (shape, size) runs serial, rerun and on the parallel
// engine, and every run must reproduce its line of
// testdata/shapes.golden: the digest of its dispositions and exact
// counts read through the daemons' public counters.  The serial run
// must also reproduce the line's allocations, measured with the
// collector off, within each column's slack; they are compared only on
// the toolchain the file's header names (map layouts differ across
// releases) and never under the race detector.  Both sizes are pinned
// exactly, so each shape's growth is pinned too.
//
// A change that moves a line regenerates the file,
//
//	go test ./internal/experiments -run '^TestShapes$' -update
//
// and says why.

var shapesGolden = filepath.Join("testdata", "shapes.golden")

// shapeRun is what one run of a shape leaves behind to compare.
type shapeRun struct {
	schedds []*daemon.Schedd // every submit point, in a fixed order
	eng     *sim.Engine
	bus     *sim.Bus
	mms     []*daemon.Matchmaker
	rec     *obs.Recorder    // nil when nothing was recorded
	mon     *monitor.Monitor // nil when nothing was streamed
	// objects and bytes are the run's allocations, when measured.
	objects, bytes int64
	err            error // the first invariant the run broke
}

// export is the run's recording as JSONL, empty when none was kept.
func (r shapeRun) export() string {
	if r.rec == nil {
		return ""
	}
	return r.rec.JSONL(obs.ExportOptions{})
}

func poolRun(p *pool.Pool, err error) shapeRun {
	return shapeRun{schedds: p.Schedds, eng: p.Engine, bus: p.Bus, mms: []*daemon.Matchmaker{p.Matchmaker}, err: err}
}

// sum is a counter summed over every submit point or negotiator.
func sum[T any](xs []T, f func(T) int) int64 {
	var n int64
	for _, x := range xs {
		n += int64(f(x))
	}
	return n
}

func wals(schedds []*daemon.Schedd) (js []*journal.Journal) {
	for _, s := range schedds {
		js = append(js, s.Journal())
	}
	return js
}

// shapeColumns are the golden's numeric fields in line order.  slack
// is the tolerance in percent; only the allocation columns have one.
var shapeColumns = []struct {
	key   string
	slack int64
	get   func(r shapeRun) int64
}{
	{"sim.events", 0, func(r shapeRun) int64 { return int64(r.eng.Processed()) }},
	// The queue the drained shape leaves behind: the live timers of
	// its daemons and churn, bounded by the machine count.
	{"sim.pending", 0, func(r shapeRun) int64 { return int64(r.eng.Pending()) }},
	{"sim.bus_msgs", 0, func(r shapeRun) int64 { return int64(r.bus.Sent()) }},
	{"sim.bus_lost", 0, func(r shapeRun) int64 { return int64(r.bus.Lost()) }},
	{"sim.bus_dup", 0, func(r shapeRun) int64 { return int64(r.bus.Duplicated()) }},
	{"journal.appends", 0, func(r shapeRun) int64 { return sum(wals(r.schedds), (*journal.Journal).Appends) }},
	{"journal.bytes", 0, func(r shapeRun) int64 { return sum(wals(r.schedds), (*journal.Journal).Size) }},
	{"journal.compactions", 0, func(r shapeRun) int64 { return sum(wals(r.schedds), (*journal.Journal).Compactions) }},
	{"daemon.mm_cycles", 0, func(r shapeRun) int64 { return sum(r.mms, func(m *daemon.Matchmaker) int { return m.Cycles }) }},
	{"daemon.mm_matches", 0, func(r shapeRun) int64 { return sum(r.mms, func(m *daemon.Matchmaker) int { return m.MatchesMade }) }},
	{"daemon.mm_cluster_scans", 0, func(r shapeRun) int64 { return sum(r.mms, func(m *daemon.Matchmaker) int { return m.ClusterScans }) }},
	{"daemon.mm_no_matches", 0, func(r shapeRun) int64 { return sum(r.mms, func(m *daemon.Matchmaker) int { return m.NoMatches }) }},
	{"obs.events", 0, func(r shapeRun) int64 {
		if r.rec == nil {
			return 0
		}
		return int64(r.rec.Len())
	}},
	{"monitor.delivered", 0, func(r shapeRun) int64 {
		if r.mon == nil {
			return 0
		}
		return r.mon.Delivered()
	}},
	{"go.alloc_objects", 1, func(r shapeRun) int64 { return r.objects }},
	{"go.alloc_bytes", 2, func(r shapeRun) int64 { return r.bytes }},
}

// shapeLine is one line of the golden.
type shapeLine struct {
	shape  string
	n      int64
	digest string
	cols   []int64 // in shapeColumns order
}

func shapeKey(shape string, n int64) string { return fmt.Sprintf("%s n=%d", shape, n) }

func lineOf(shape string, n int, r shapeRun) shapeLine {
	h := sha256.Sum256([]byte(dispositions(r.schedds)))
	l := shapeLine{shape: shape, n: int64(n), digest: hex.EncodeToString(h[:8])}
	for _, col := range shapeColumns {
		l.cols = append(l.cols, col.get(r))
	}
	return l
}

func (l shapeLine) encode() string {
	b := record.AppendStr(nil, "shape", l.shape)
	b = record.AppendInt(b, "n", l.n)
	b = record.AppendStr(b, "digest", l.digest)
	for i, col := range shapeColumns {
		b = record.AppendInt(b, col.key, l.cols[i])
	}
	return string(b[1:])
}

// readShapes reads the golden: the toolchain its allocations were
// measured on, and its lines by key.
func readShapes(t *testing.T) (toolchain string, lines map[string]shapeLine) {
	lines = map[string]shapeLine{}
	data, err := os.ReadFile(shapesGolden)
	if os.IsNotExist(err) && *updateGolden {
		return "", lines
	}
	if err != nil {
		t.Fatalf("missing shape table (run `go test ./internal/experiments -run '^TestShapes$' -update`): %v", err)
	}
	var c record.Cursor
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if len(sc.Bytes()) == 0 || sc.Bytes()[0] == '#' {
			continue
		}
		if err := c.Scan(sc.Bytes()); err != nil {
			t.Fatalf("%s: %v", shapesGolden, err)
		}
		if _, ok := c.Get("toolchain"); ok {
			toolchain = c.Str("toolchain")
			continue
		}
		l := shapeLine{shape: c.Str("shape"), n: c.Int("n"), digest: c.Str("digest")}
		for _, col := range shapeColumns {
			l.cols = append(l.cols, c.Int(col.key))
		}
		switch {
		case c.Err != nil && *updateGolden:
			// A line of an older column set is about to be rewritten.
			continue
		case c.Err != nil:
			t.Fatalf("%s: %q: %v", shapesGolden, sc.Text(), c.Err)
		}
		lines[shapeKey(l.shape, l.n)] = l
	}
	return toolchain, lines
}

func writeShapes(t *testing.T, lines map[string]shapeLine) {
	var sb strings.Builder
	sb.WriteString("# The shape table (shapes_test.go): one line per (shape, size).\n")
	sb.WriteString("# Regenerate: go test ./internal/experiments -run '^TestShapes$' -update\n")
	sb.WriteString(string(record.AppendStr(nil, "toolchain", runtime.Version())[1:]) + "\n")
	for _, sh := range shapes {
		for _, n := range []int64{int64(sh.n), int64(2 * sh.n)} {
			if l, ok := lines[shapeKey(sh.name, n)]; ok {
				sb.WriteString(l.encode() + "\n")
			}
		}
	}
	if err := os.WriteFile(shapesGolden, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// measured runs f once with the collector off and returns the objects
// and bytes it allocated.  Two collections first empty the sync.Pools,
// so every measured run starts from the same heap state.
func measured(f func()) (objects, allocated int64) {
	runtime.GC()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return int64(after.Mallocs - before.Mallocs), int64(after.TotalAlloc - before.TotalAlloc)
}

func TestShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("the shape table runs whole pools")
	}
	if *updateGolden && raceEnabled {
		t.Fatal("regenerate the shape table without -race: its allocations would be the detector's")
	}
	toolchain, golden := readShapes(t)
	allocs := toolchain == runtime.Version() && !raceEnabled
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			msgsPerJob := map[int]float64{}
			for _, n := range []int{sh.n, 2 * sh.n} {
				// The rerun goes first: it warms every cache the
				// measured serial run would otherwise fill.
				arms := map[string]shapeRun{"rerun": sh.run(goldenSeed, n, 0)}
				var serial shapeRun
				objects, allocated := measured(func() { serial = sh.run(goldenSeed, n, 0) })
				serial.objects, serial.bytes = objects, allocated
				arms["serial"], arms["parallel"] = serial, sh.run(goldenSeed, n, 4)
				msgsPerJob[n] = float64(serial.bus.Sent()) / float64(n)
				if sh.bare != nil {
					arms["bare"] = sh.bare(goldenSeed, n)
				}
				key := shapeKey(sh.name, int64(n))
				if *updateGolden {
					golden[key] = lineOf(sh.name, n, serial)
				}
				want, ok := golden[key]
				if !ok {
					t.Fatalf("no line %q in %s (regenerate with -update)", key, shapesGolden)
				}
				for _, arm := range []string{"serial", "rerun", "parallel", "bare"} {
					r, ok := arms[arm]
					if !ok {
						continue
					}
					got := lineOf(sh.name, n, r)
					switch {
					case r.err != nil:
						t.Errorf("n=%d %s: %v", n, arm, r.err)
					case got.digest != want.digest:
						t.Errorf("n=%d %s: digest %s, golden %s", n, arm, got.digest, want.digest)
					case r.export() != serial.export():
						t.Errorf("n=%d %s: trace export diverges from serial", n, arm)
					}
					for i, col := range shapeColumns {
						g, w := got.cols[i], want.cols[i]
						d := max(g-w, w-g)
						switch {
						case arm == "bare":
							// It streams nothing: only its dispositions and
							// trace must be the monitored run's.
						case col.slack == 0 && g != w:
							t.Errorf("n=%d %s: %s = %d, golden %d (counts are exact)", n, arm, col.key, g, w)
						case col.slack > 0 && arm == "serial" && allocs && d*100 > w*col.slack:
							t.Errorf("n=%d: %s = %d, golden %d (%+.1f %%, slack %d %%)",
								n, col.key, g, w, 100*float64(g-w)/float64(w), col.slack)
						}
					}
				}
			}
			if lo, hi := msgsPerJob[sh.n], msgsPerJob[2*sh.n]; sh.flatTraffic && (hi < 0.9*lo || hi > 1.1*lo) {
				t.Errorf("sim.bus_msgs per job: %.1f at n=%d, %.1f at n=%d; want within ±10 %%",
					lo, sh.n, hi, 2*sh.n)
			}
		})
	}
	if *updateGolden {
		writeShapes(t, golden)
	}
}

// shape is one row of the table.
type shape struct {
	name string
	n    int // the smaller size; every row also runs at 2n
	// run builds the shape at size n with the given engine workers,
	// drains it and checks its invariants.
	run func(seed int64, n, workers int) shapeRun
	// bare, when set, is the same shape with observation and
	// administration applied directly: its dispositions and trace
	// export must equal the serial run's.
	bare func(seed int64, n int) shapeRun
	// flatTraffic requires the serial run's bus messages per job at 2n
	// within ±10 % of n's: the queue deepens, the traffic per job does
	// not.
	flatTraffic bool
}

var shapes = []shape{
	{name: "uniform", n: 256, run: func(seed int64, n, workers int) shapeRun { return javaShape(seed, 64, n, workers) }},
	{name: "deep", n: 256, flatTraffic: true,
		run: func(seed int64, n, workers int) shapeRun { return javaShape(seed, 8, n, workers) }},
	{name: "faulty", n: 64, run: faultyShape},
	{name: "ops", n: 12,
		run:  func(seed int64, n, workers int) shapeRun { return opsShape(seed, n, workers, true) },
		bare: func(seed int64, n int) shapeRun { return opsShape(seed, n, 0, false) }},
	{name: "flock", n: 8, run: flockShape},
	{name: "churn", n: 16, run: churnShape},
}

// settled is the end state a shape asserts: all jobs completed with a
// program result, and, for a shape that exists to evict running jobs,
// at least one eviction and none that reached a user.
func settled(m pool.Metrics, jobs int, evicts bool) error {
	switch {
	case m.Completed != jobs:
		return fmt.Errorf("%d of %d jobs completed (%d unfinished)", m.Completed, jobs, m.Unfinished)
	case evicts && m.Evictions == 0:
		return fmt.Errorf("no running job was ever evicted; the shape proves nothing")
	case m.IncidentalLeaks != 0:
		return fmt.Errorf("%d evictions leaked to users as job errors", m.IncidentalLeaks)
	}
	return nil
}

// javaShape is n five-minute Java jobs on a uniform pool.
func javaShape(seed int64, machines, n, workers int) shapeRun {
	p := pool.New(pool.Config{
		Seed:     seed,
		Params:   daemon.DefaultParams(),
		Machines: pool.UniformMachines(machines, 2048),
		Workers:  workers,
	})
	p.SubmitJava(n, pool.UniformCompute(5*time.Minute))
	p.Run(7 * 24 * time.Hour)
	return poolRun(p, settled(p.Metrics(), n, false))
}

// checkpointing is the parameter set of the shapes that run standard
// jobs through evictions.
func checkpointing() daemon.Params {
	params := daemon.DefaultParams()
	params.CheckpointInterval = 10 * time.Minute
	params.CheckpointOverhead = 15 * time.Second
	params.MaxAttempts = 100
	return params
}

// faultyShape is the paper's pool in miniature: black-hole machines,
// churn, mixed Java programs beside checkpointing standard jobs, and
// two schedd crashes, each recovered from the journal.
func faultyShape(seed int64, n, workers int) shapeRun {
	p := pool.New(pool.Config{
		Seed:     seed,
		Params:   checkpointing(),
		Machines: pool.Misconfigure(pool.UniformMachines(32, 2048), 4, pool.BreakBadLibraryPath, false),
		Workers:  workers,
		Churn:    &pool.ChurnConfig{Horizon: 48 * time.Hour, MeanUp: 30 * time.Minute, Downtime: 10 * time.Minute},
	})
	p.StageSharedInput()
	p.SubmitJava(n, pool.MixedWorkload(seed, 5*time.Minute))
	p.SubmitStandard(n/4, pool.UniformCompute(45*time.Minute))

	crashes := []time.Duration{15 * time.Minute, 40 * time.Minute}
	var err error
	for deadline := p.Engine.Now().Add(7 * 24 * time.Hour); p.Engine.Now() < deadline && !p.AllTerminal(); {
		p.Engine.RunFor(time.Minute)
		if len(crashes) > 0 && time.Duration(p.Engine.Now()) >= crashes[0] {
			crashes = crashes[1:]
			p.Schedd.Crash()
			p.Engine.RunFor(30 * time.Second)
			if rerr := p.Schedd.Recover(nil); rerr != nil && err == nil {
				err = fmt.Errorf("recover: %v", rerr)
			}
		}
	}
	switch m := p.Metrics(); {
	case err != nil:
	case len(crashes) != 0:
		err = fmt.Errorf("the queue drained before %d of the planned crashes", len(crashes))
	case m.Unfinished != 0 || m.IncidentalLeaks != 0:
		err = fmt.Errorf("%d jobs without a final disposition, %d incidental leaks", m.Unfinished, m.IncidentalLeaks)
	}
	return poolRun(p, err)
}

// opsShape runs n checkpointing standard jobs with a machine drained
// at 45 minutes.  Monitored, the pool streams to two subscribers, one
// of which dies mid-stream, and the drain goes through the admin
// plane; bare, the drain is the daemon call the admin verb wraps.
func opsShape(seed int64, n, workers int, monitored bool) shapeRun {
	const drainTarget = "c002"
	rec := obs.NewRecorder()
	params := checkpointing()
	params.Trace = rec
	p := pool.New(pool.Config{
		Seed:     seed,
		Params:   params,
		Machines: pool.UniformMachines(8, 2048),
		Workers:  workers,
	})
	p.SubmitStandard(n, pool.UniformCompute(90*time.Minute))

	var mon *monitor.Monitor
	col := monitor.NewCollector()
	var err, verbErr error
	if monitored {
		mon = monitor.Attach(p, rec, "ops")
		if err = mon.Subscribe(col, 0); err == nil {
			err = mon.Subscribe(monitor.FailAfter(40), 0)
		}
	}
	p.Engine.After(45*time.Minute, func() {
		if mon != nil {
			_, verbErr = mon.Admin("drain", drainTarget)
			return
		}
		for _, sd := range p.Startds {
			if sd.Name() == drainTarget {
				verbErr = sd.Drain()
			}
		}
	})
	// Pool.Run's stepping loop with a pump after every step, the way a
	// monitor rides a simulated pool.
	for deadline := p.Engine.Now().Add(72 * time.Hour); p.Engine.Now() < deadline && !p.AllTerminal(); {
		p.Engine.RunFor(time.Minute)
		if mon != nil {
			mon.Pump()
		}
	}
	if mon != nil {
		mon.Pump()
	}

	switch {
	case err != nil:
	case verbErr != nil:
		err = fmt.Errorf("drain %s: %v", drainTarget, verbErr)
	default:
		err = settled(p.Metrics(), n, true)
	}
	for _, sd := range p.Startds {
		if err == nil && sd.Name() == drainTarget && !sd.Drained() {
			err = fmt.Errorf("the drain left %s undrained", drainTarget)
		}
	}
	if err == nil && mon != nil {
		// Stream fidelity: the surviving subscriber holds exactly the
		// pool's recording, and the dying one cost exactly one session.
		got, want := col.Events(), rec.Events()
		mon.Detach(col)
		switch {
		case !slices.Equal(got, want):
			err = fmt.Errorf("the stream (%d events) is not the pool's recording (%d events)", len(got), len(want))
		case mon.Dropped() != 1:
			err = fmt.Errorf("%d subscribers dropped, want exactly the dying one", mon.Dropped())
		case mon.Subscribers() != 0:
			err = fmt.Errorf("%d subscribers left after detach", mon.Subscribers())
		}
	}
	r := poolRun(p, err)
	r.rec, r.mon = rec, mon
	return r
}

// flockShape is three pools whose n home jobs cannot run at home (64
// MB machines, 128 MB ads) and finish only by flocking, beside n/2
// seed-varied jobs of the pool they flock to.
func flockShape(seed int64, n, workers int) shapeRun {
	fed := pool.NewFederation(pool.FederationConfig{
		Seed:       seed,
		Params:     daemon.DefaultParams(),
		FlockAfter: 2 * time.Minute,
		Workers:    workers,
		Pools: []pool.FedPoolConfig{
			{Name: "p1", Machines: pool.UniformMachines(2, 64), FlockTo: []string{"p2", "p3"}},
			{Name: "p2", Machines: pool.UniformMachines(4, 2048), FlockTo: []string{"p1"}},
			{Name: "p3", Machines: pool.UniformMachines(2, 2048)},
		},
	})
	fed.Pool("p1").SubmitJava(n, pool.UniformCompute(5*time.Minute))
	_ = fed.Pool("p2").Schedd.SubmitFS.WriteFile("/home/user/shared.dat", make([]byte, 4096))
	fed.Pool("p2").SubmitJava(n/2, pool.MixedWorkload(seed, 5*time.Minute))
	fed.Run(24 * time.Hour)

	r := shapeRun{eng: fed.Engine, bus: fed.Bus, err: settled(fed.Metrics(), n+n/2, false)}
	for _, p := range fed.Pools {
		r.schedds = append(r.schedds, p.Schedds...)
		r.mms = append(r.mms, p.Matchmaker)
	}
	if fm := fed.FlockMetrics(); r.err == nil && (fm.Departures == 0 || fm.Grants == 0 || fm.ForeignMatches == 0) {
		r.err = fmt.Errorf("flocking never engaged: %+v", fm)
	}
	return r
}

// churnShape is n 90-minute checkpointing standard jobs on machines
// whose owners reclaim them about every two hours for half an hour:
// no job finishes without surviving evictions, and none of them may
// reach a user, because an owner's return is scoped to the claim.
func churnShape(seed int64, n, workers int) shapeRun {
	p := pool.New(pool.Config{
		Seed:     seed,
		Params:   checkpointing(),
		Machines: pool.UniformMachines(8, 2048),
		Workers:  workers,
		Churn:    &pool.ChurnConfig{Horizon: 24 * time.Hour, MeanUp: 2 * time.Hour, Downtime: 30 * time.Minute},
	})
	p.SubmitStandard(n, pool.UniformCompute(90*time.Minute))
	p.Run(72 * time.Hour)
	return poolRun(p, settled(p.Metrics(), n, true))
}
