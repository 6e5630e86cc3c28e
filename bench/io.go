package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"net"
	"sync/atomic"
	"time"

	"github.com/errscope/grid/internal/chirp"
	"github.com/errscope/grid/internal/remoteio"
	"github.com/errscope/grid/internal/vfs"
	"github.com/errscope/grid/internal/wire"
)

const (
	ioPath   = "/data"
	ioSecret = "bench-secret"
	smallLen = 64
	bulkLen  = 32768
	bulkGrid = 4096
)

// legModes are each leg's transports: the job's I/O library to the
// proxy (chirp), and the proxy to the shadow (remoteio).
var legModes = map[string]struct{ chirp, remoteio wire.Mode }{
	"legacy": {wire.ModeText, wire.ModeText},
	"framed": {wire.ModeBinary, wire.ModeBinary},
	"secure": {wire.ModeBinary, wire.ModeSecure},
}

// countingConn counts the calls and bytes of the client's socket; each
// call is one syscall on a TCP connection.
type countingConn struct {
	net.Conn
	calls atomic.Int64
	bytes atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.calls.Add(1)
	c.bytes.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.calls.Add(1)
	c.bytes.Add(int64(n))
	return n, err
}

type ioOpKind uint8

const (
	opRead ioOpKind = iota
	opWrite
	opStat
)

// ioOp is one generated request.  A write's payload is the length
// bytes of the leg's noise buffer starting at src.
type ioOp struct {
	kind   ioOpKind
	off    int64
	length int
	src    int
}

// genOps draws the whole op stream of a leg up front, so that the timed
// loop holds nothing but the RPC and its check.
func genOps(s ioSpec, rng *rand.Rand, n, noiseLen int) []ioOp {
	ops := make([]ioOp, n)
	for i := range ops {
		if s.Bulk {
			kind := opRead
			if i%2 == 1 {
				kind = opWrite
			}
			ops[i] = ioOp{kind: kind, off: int64(rng.Intn((s.FileSize-bulkLen)/bulkGrid+1)) * bulkGrid,
				length: bulkLen, src: rng.Intn(noiseLen - bulkLen)}
			continue
		}
		op := ioOp{off: int64(rng.Intn(s.FileSize - smallLen)), length: smallLen, src: rng.Intn(noiseLen - smallLen)}
		switch r := rng.Intn(100); {
		case r < 45:
			op.kind = opRead
		case r < 90:
			op.kind = opWrite
		default:
			op.kind = opStat
		}
		ops[i] = op
	}
	return ops
}

// chain is one live Figure-2 data path on loopback:
// chirp.Client -> chirp.Server{remoteio.ChirpBackend} ->
// remoteio.Client -> remoteio.Server -> vfs.
type chain struct {
	leg    string
	fs     *vfs.FileSystem
	shadow *remoteio.Server
	link   *remoteio.Client
	proxy  *chirp.Server
	conn   *countingConn
	client *chirp.Client
	fd     int

	// model is the local replay every read is checked against.
	model []byte
	noise []byte
	ops   []ioOp
}

func (c *chain) close() {
	if c.client != nil {
		c.client.Close()
	}
	if c.proxy != nil {
		c.proxy.Close()
	}
	if c.link != nil {
		c.link.Close()
	}
	if c.shadow != nil {
		c.shadow.Close()
	}
}

// newChain stages the file and brings up fresh servers and connections
// for one leg.  On error the caller closes what was built.
func newChain(s ioSpec, leg string, seed int64) (*chain, error) {
	c := &chain{leg: leg, fs: vfs.New()}
	rng := rand.New(rand.NewSource(seed))
	c.model = make([]byte, s.FileSize)
	rng.Read(c.model)
	c.noise = make([]byte, 1<<20)
	rng.Read(c.noise)
	c.ops = genOps(s, rng, s.Warmup+s.Ops, len(c.noise))
	if err := c.fs.WriteFile(ioPath, c.model); err != nil {
		return c, fmt.Errorf("stage: %w", err)
	}
	modes := legModes[leg]
	c.shadow = remoteio.NewServer(c.fs, []byte(ioSecret))
	c.shadow.Mode = modes.remoteio
	addr, err := c.shadow.Listen("127.0.0.1:0")
	if err != nil {
		return c, err
	}
	if c.link, err = remoteio.DialOpts(addr, []byte(ioSecret), remoteio.DialOptions{Mode: modes.remoteio}); err != nil {
		return c, fmt.Errorf("dial shadow: %w", err)
	}
	c.proxy = chirp.NewServer(&remoteio.ChirpBackend{Client: c.link}, ioSecret)
	if addr, err = c.proxy.Listen("127.0.0.1:0"); err != nil {
		return c, err
	}
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return c, fmt.Errorf("dial proxy: %w", err)
	}
	c.conn = &countingConn{Conn: raw}
	if c.client, err = chirp.NewClient(c.conn, ioSecret, chirp.DialOptions{Mode: modes.chirp}); err != nil {
		raw.Close()
		return c, fmt.Errorf("chirp handshake: %w", err)
	}
	if c.fd, err = c.client.Open(ioPath, chirp.FlagRead|chirp.FlagWrite); err != nil {
		return c, fmt.Errorf("open: %w", err)
	}
	return c, nil
}

// do issues one op and checks its reply against the model; the error
// is nil when the RPC succeeded and returned the right bytes.
func (c *chain) do(op ioOp) error {
	switch op.kind {
	case opRead:
		got, err := c.client.PRead(c.fd, op.length, op.off)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, c.model[op.off:op.off+int64(op.length)]) {
			return fmt.Errorf("pread %d@%d returned wrong bytes", op.length, op.off)
		}
	case opWrite:
		data := c.noise[op.src : op.src+op.length]
		n, err := c.client.PWrite(c.fd, data, op.off)
		if err != nil {
			return err
		}
		if n != op.length {
			return fmt.Errorf("pwrite %d@%d wrote %d", op.length, op.off, n)
		}
		copy(c.model[op.off:], data)
	case opStat:
		info, err := c.client.Stat(ioPath)
		if err != nil {
			return err
		}
		if info.Size != int64(len(c.model)) {
			return fmt.Errorf("stat size %d, want %d", info.Size, len(c.model))
		}
	}
	return nil
}

// run issues ops in a closed loop — the job's I/O library waits for
// each reply — and returns the number that failed.
func (c *chain) run(ops []ioOp, tr *tracer, parent int, res *passResult) (failed int) {
	for _, op := range ops {
		id := tr.begin(parent, "chirp.op")
		err := c.do(op)
		tr.end(id, nil)
		if err != nil {
			if failed == 0 {
				res.failf("%s leg: %v", c.leg, err)
			}
			failed++
		}
	}
	return failed
}

// runIO runs one pass of a chain workload: all three legs are set up
// and warmed first (that is the set-up time), then timed one after
// another.  It returns the probes to run after the traced pass.
func runIO(s ioSpec, seed int64, tr *tracer, res *passResult) (probes func()) {
	root := tr.begin(0, "run")
	start := time.Now()
	id := tr.begin(root, "io.setup")
	var chains []*chain
	defer func() {
		for _, c := range chains {
			c.close()
		}
	}()
	for i, leg := range legs {
		c, err := newChain(s, leg, seed+int64(i))
		chains = append(chains, c)
		if err != nil {
			res.failf("%s leg set-up: %v", leg, err)
			res.Attempted, res.Failed = 1, 1
			tr.end(id, nil)
			tr.end(root, nil)
			return nil
		}
		res.Attempted += s.Warmup
		res.Failed += c.run(c.ops[:s.Warmup], nil, 0, res)
	}
	tr.end(id, nil)
	res.emit("setup_s", time.Since(start).Seconds())

	var timed time.Duration
	digest := sha256.New()
	for _, c := range chains {
		legID := tr.begin(root, "io.leg")
		firstOp := 0
		if tr != nil {
			firstOp = len(tr.spans)
		}
		calls, sent := c.conn.calls.Load(), c.conn.bytes.Load()
		legStart := time.Now()
		failed := c.run(c.ops[s.Warmup:], tr, legID, res)
		leg := time.Since(legStart)
		calls, sent = c.conn.calls.Load()-calls, c.conn.bytes.Load()-sent
		tr.end(legID, map[string]int64{"chirp.ops": int64(s.Ops), "chirp.syscalls": calls, "chirp.bytes": sent})
		timed += leg
		res.Attempted += s.Ops
		res.Failed += failed

		id := tr.begin(root, "bench.check")
		final, err := c.fs.ReadFile(ioPath)
		if err != nil || !bytes.Equal(final, c.model) {
			res.failf("%s leg: the final file differs from the local replay (%v)", c.leg, err)
			res.Failed++
		}
		digest.Write(final)
		tr.end(id, nil)

		if tr != nil {
			us := make([]float64, 0, s.Ops)
			for _, sp := range tr.spans[firstOp:] {
				if sp.Name == "chirp.op" {
					us = append(us, float64(sp.dur())/1e3)
				}
			}
			us = sortedCopy(us)
			res.emit("chirp.ops_per_s_"+c.leg, float64(s.Ops)/leg.Seconds())
			res.emit("chirp.op_p50_us_"+c.leg, quantile(us, 0.5))
			res.emit("chirp.op_p99_us_"+c.leg, quantile(us, 0.99))
			res.emit("chirp.syscalls_per_op_"+c.leg, float64(calls)/float64(s.Ops))
			res.emit("chirp.bytes_per_op_"+c.leg, float64(sent)/float64(s.Ops))
		}
	}
	tr.end(root, nil)
	res.Digest = hex.EncodeToString(digest.Sum(nil))
	res.emit("throughput_per_s", float64(len(chains)*s.Ops)/timed.Seconds())
	return func() { probeIOLayers(res) }
}
