package experiments

import (
	"bytes"
	"fmt"
	"strings"

	"github.com/errscope/grid/internal/chirp"
	"github.com/errscope/grid/internal/faultinject"
	"github.com/errscope/grid/internal/obs"
	"github.com/errscope/grid/internal/vfs"
	"github.com/errscope/grid/internal/wire"
)

// The tracing experiment: one canonical error-propagation trace per
// fault class of Figure 3's world.  Each scenario runs with a
// recording tracer threaded through every daemon, the bus, the
// wrapper, and (for the connection classes) the live Chirp client;
// the recording exports as deterministic JSON lines.  Every scenario
// runs twice and the two exports must be byte-identical — the trace
// subsystem inherits the simulation's determinism contract, and the
// golden-trace regression suite pins the committed bytes per seed.

// canonicalSimCells returns the first sweep cell of each
// simulation-side fault class, in matrix order — the same subset the
// fault smoke uses, so every class's canonical scenario is already
// conformance-checked.
func canonicalSimCells() []simCell {
	seen := map[faultinject.Class]bool{}
	var out []simCell
	for _, c := range simCells() {
		if seen[c.class] {
			continue
		}
		seen[c.class] = true
		out = append(out, c)
	}
	return out
}

// simTrace runs one canonical cell under a fresh recorder and returns
// the exported JSONL plus the recorder (for timelines).  The export is
// not normalized: virtual time is deterministic and belongs in the
// golden bytes.  workers > 1 runs the cell on the parallel engine,
// which must reproduce the same bytes.
func (c simCell) simTrace(seed int64, workers int) (string, *obs.Recorder, error) {
	rec := obs.NewRecorder()
	if _, err := c.runSim(seed, rec, workers); err != nil {
		return "", nil, err
	}
	return rec.JSONL(obs.ExportOptions{}), rec, nil
}

// connTraceCell is a live-stack trace scenario: a real Chirp session
// through a fault proxy, with the recorder on the client side only
// (server-side event counts vary with socket timing).  The export is
// normalized — wall clocks and OS error text have no place in golden
// bytes.
type connTraceCell struct {
	class faultinject.Class
	mode  wire.Mode
	rekey uint64
	fault faultinject.ConnFault
}

func (c connTraceCell) connTrace() (string, *obs.Recorder, error) {
	rec := obs.NewRecorder()
	err := chirpTraced(c.mode, c.rekey, c.fault, rec)
	if err == nil {
		return "", nil, fmt.Errorf("operation over the faulted connection succeeded")
	}
	return rec.JSONL(obs.ExportOptions{Normalize: true}), rec, nil
}

// chirpTraced reads through a fault proxy with a traced client until
// the transport dies, returning the first transport error.
func chirpTraced(mode wire.Mode, rekey uint64, fault faultinject.ConnFault, rec *obs.Recorder) error {
	fs := vfs.New()
	if err := fs.WriteFile("/data", bytes.Repeat([]byte("x"), 4096)); err != nil {
		return err
	}
	srv := chirp.NewServer(&chirp.VFSBackend{FS: fs}, "ck")
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	px, err := faultinject.NewProxy(addr, fault)
	if err != nil {
		return err
	}
	defer px.Close()
	c, err := chirp.DialOpts(px.Addr(), "ck", chirp.DialOptions{Mode: mode, RekeyAfter: rekey})
	if err != nil {
		return err
	}
	defer c.Close()
	c.Trace = rec
	c.TraceJob = 1
	fd, err := c.Open("/data", chirp.FlagRead)
	if err != nil {
		return err
	}
	for i := 0; i < 16; i++ {
		if _, err := c.Read(fd, 4096); err != nil {
			return err
		}
	}
	return nil
}

// connTraceCells lists the canonical live scenarios, one per
// connection fault class.  Frame indices follow the server→client
// accounting: binary mode is authOK(1), open-resp(2), read-resp(3);
// secure mode spends helloAck(1) and proofAck(2) first, so the read
// response is frame 4.
func connTraceCells() []connTraceCell {
	return []connTraceCell{
		{faultinject.ClassConnTruncate, wire.ModeText, 0, faultinject.ConnFault{CutToClient: 64}},
		{faultinject.ClassConnReset, wire.ModeText, 0, faultinject.ConnFault{CutToClient: 64, Reset: true}},
		{faultinject.ClassFrameCorrupt, wire.ModeBinary, 0, faultinject.ConnFault{CorruptFrame: 3}},
		{faultinject.ClassFrameTruncate, wire.ModeBinary, 0, faultinject.ConnFault{TruncateFrame: 3}},
		{faultinject.ClassMACFailure, wire.ModeSecure, 0, faultinject.ConnFault{CorruptFrame: 4, FixChecksum: true}},
		{faultinject.ClassFrameReplay, wire.ModeSecure, 0, faultinject.ConnFault{ReplayFrame: 4}},
		// Key expiry is armed by the session budget, not the proxy:
		// proof(1), open(2), read(3), then the next read refuses.
		{faultinject.ClassKeyExpiry, wire.ModeSecure, 3, faultinject.ConnFault{}},
	}
}

// Traces produces the canonical propagation trace for every fault
// class, verifying byte-determinism by running each scenario twice.
// The returned map is class name -> JSONL trace, the bytes the golden
// suite commits.
func Traces(seed int64) (*Report, map[string]string, error) {
	rep := &Report{
		ID:      "trace",
		Title:   "error-propagation traces: one canonical scenario per fault class",
		Headers: []string{"class", "site", "events", "spans", "origin->disposition", "deterministic"},
	}
	out := make(map[string]string)
	failures := 0

	var jvmRec *obs.Recorder // the misconfigured-JVM narrative's recording
	var jvmJob int64

	for _, c := range canonicalSimCells() {
		jsonl, rec, err := c.simTrace(seed, 0)
		det := "yes"
		if err == nil {
			jsonl2, _, err2 := c.simTrace(seed, 0)
			switch {
			case err2 != nil:
				err = fmt.Errorf("second run: %v", err2)
			case jsonl != jsonl2:
				err = fmt.Errorf("nondeterministic trace export")
			}
		}
		if err != nil {
			failures++
			rep.AddRow(string(c.class), c.site, "-", "-", "-", "FAIL: "+err.Error())
			continue
		}
		spans := rec.Spans()
		rep.AddRow(string(c.class), c.site,
			fmt.Sprint(len(rec.Events())), fmt.Sprint(len(spans)),
			spanSummary(spans), det)
		out[string(c.class)] = jsonl
		if c.class == faultinject.ClassMissingInstall && jvmRec == nil {
			jvmRec, jvmJob = rec, 1
		}
	}

	for _, c := range connTraceCells() {
		site := fmt.Sprintf("chirp (live TCP, %s)", c.mode)
		jsonl, rec, err := c.connTrace()
		det := "yes"
		if err == nil {
			jsonl2, _, err2 := c.connTrace()
			switch {
			case err2 != nil:
				err = fmt.Errorf("second run: %v", err2)
			case jsonl != jsonl2:
				err = fmt.Errorf("nondeterministic normalized export")
			}
		}
		if err != nil {
			failures++
			rep.AddRow(string(c.class), site, "-", "-", "-", "FAIL: "+err.Error())
			continue
		}
		spans := rec.Spans()
		rep.AddRow(string(c.class), site,
			fmt.Sprint(len(rec.Events())), fmt.Sprint(len(spans)),
			spanSummary(spans), det)
		out[string(c.class)] = jsonl
	}

	for _, class := range faultinject.Classes {
		if _, ok := out[string(class)]; !ok && failures == 0 {
			failures++
			rep.AddNote("COVERAGE: class %s has no trace", class)
		}
	}

	if jvmRec != nil {
		// The Figure 4 narrative, reconstructed from spans instead of
		// postmortem logins: the owner advertised Java, the JVM never
		// started, and the error came home as remote-resource scope —
		// requeued, not returned to the user as a program result.
		rep.AddNote("misconfigured-JVM walkthrough (missing-installation, job %d):", jvmJob)
		for _, line := range strings.Split(strings.TrimRight(jvmRec.Timeline(jvmJob), "\n"), "\n") {
			rep.AddNote("  %s", line)
		}
	}

	if failures > 0 {
		return rep, out, fmt.Errorf("trace: %d failing scenario(s)", failures)
	}
	rep.AddNote("all %d classes traced; every export byte-identical across two runs", len(out))
	return rep, out, nil
}

// spanSummary renders the characteristic span of a recording: the
// first closed span's origin, scope journey, and disposition.
func spanSummary(spans []obs.Span) string {
	for _, sp := range spans {
		if sp.Disposition == "" {
			continue
		}
		if sp.Scope == sp.FinalScope {
			return fmt.Sprintf("%s %s -> %s", sp.Origin, sp.Scope, sp.Disposition)
		}
		return fmt.Sprintf("%s %s->%s -> %s", sp.Origin, sp.Scope, sp.FinalScope, sp.Disposition)
	}
	if len(spans) > 0 {
		sp := spans[0]
		return fmt.Sprintf("%s %s (open)", sp.Origin, sp.Scope)
	}
	return "no spans"
}
