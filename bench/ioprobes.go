package main

import (
	"bufio"
	"bytes"
	"fmt"
	"sync"
	"time"

	"github.com/errscope/grid/internal/chirp"
	"github.com/errscope/grid/internal/remoteio"
	"github.com/errscope/grid/internal/vfs"
	"github.com/errscope/grid/internal/wire"
)

// memPipe is one direction of an in-memory duplex: writes never block,
// reads wait for data.  With it a session can be driven from a single
// goroutine once the handshake is over — no sockets, no hand-offs.
type memPipe struct {
	mu   sync.Mutex
	cond *sync.Cond
	buf  bytes.Buffer
}

func newMemPipe() *memPipe {
	p := &memPipe{}
	p.cond = sync.NewCond(&p.mu)
	return p
}

func (p *memPipe) Write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cond.Signal()
	return p.buf.Write(b)
}

func (p *memPipe) Read(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.buf.Len() == 0 {
		p.cond.Wait()
	}
	return p.buf.Read(b)
}

// sessionPair opens a client and a server session over an in-memory
// duplex and runs the handshake; it returns how long that took.
func sessionPair(mode wire.Mode) (client, server *wire.Session, handshake time.Duration, err error) {
	c2s, s2c := newMemPipe(), newMemPipe()
	client = wire.NewSession(bufio.NewReader(s2c), c2s, wire.Config{Mode: mode, Secret: []byte(ioSecret)})
	server = wire.NewSession(bufio.NewReader(c2s), s2c, wire.Config{Secret: []byte(ioSecret)})
	start := time.Now()
	served := make(chan error, 1)
	go func() { served <- server.ServerHandshake() }()
	err = client.ClientHandshake()
	if serr := <-served; err == nil {
		err = serr
	}
	return client, server, time.Since(start), err
}

// probeSession is WriteMsg on one side plus ReadMsg on the other.
func probeSession(res *passResult, mode wire.Mode, payload []byte) float64 {
	client, server, _, err := sessionPair(mode)
	if err != nil {
		res.failf("wire probe: %s handshake: %v", mode, err)
		return 0
	}
	defer client.Release()
	defer server.Release()
	var failure error
	ns := perOp(func() {
		if err := client.WriteMsg(1, payload); err != nil {
			failure = err
			return
		}
		if _, got, err := server.ReadMsg(); err != nil || len(got) != len(payload) {
			failure = fmt.Errorf("read %d bytes: %v", len(got), err)
		}
	})
	if failure != nil {
		res.failf("wire probe: %s session: %v", mode, failure)
	}
	return ns
}

func probeFrame(res *passResult, payload []byte) float64 {
	var buf []byte
	var failure error
	ns := perOp(func() {
		buf = wire.AppendFrame(buf[:0], 1, 7, payload)
		if _, _, _, err := wire.DecodeFrame(buf); err != nil {
			failure = err
		}
	})
	if failure != nil {
		res.failf("wire probe: frame: %v", failure)
	}
	return ns
}

// rttUS times a 64-byte read over one hop on loopback, in microseconds.
func rttUS(res *passResult, what string, read func() ([]byte, error)) float64 {
	var failure error
	ns := perOp(func() {
		if got, err := read(); err != nil || len(got) != smallLen {
			failure = fmt.Errorf("read %d bytes: %v", len(got), err)
		}
	})
	if failure != nil {
		res.failf("%s probe: %v", what, failure)
	}
	return ns / 1e3
}

func probeChirpHop(res *passResult, fs *vfs.FileSystem, mode wire.Mode) float64 {
	srv := chirp.NewServer(&chirp.VFSBackend{FS: fs}, ioSecret)
	defer srv.Close()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		res.failf("chirp probe: %v", err)
		return 0
	}
	c, err := chirp.DialMode(addr, ioSecret, mode)
	if err != nil {
		res.failf("chirp probe: %v", err)
		return 0
	}
	defer c.Close()
	fd, err := c.Open(ioPath, chirp.FlagRead)
	if err != nil {
		res.failf("chirp probe: %v", err)
		return 0
	}
	return rttUS(res, "chirp", func() ([]byte, error) { return c.PRead(fd, smallLen, 0) })
}

func probeRemoteioHop(res *passResult, fs *vfs.FileSystem, mode wire.Mode) float64 {
	srv := remoteio.NewServer(fs, []byte(ioSecret))
	srv.Mode = mode
	defer srv.Close()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		res.failf("remoteio probe: %v", err)
		return 0
	}
	c, err := remoteio.DialMode(addr, []byte(ioSecret), mode)
	if err != nil {
		res.failf("remoteio probe: %v", err)
		return 0
	}
	defer c.Close()
	return rttUS(res, "remoteio", func() ([]byte, error) { return c.Read(ioPath, 0, smallLen) })
}

// probeIOLayers runs the wire, chirp, remoteio and vfs probes.
func probeIOLayers(res *passResult) {
	small, bulk := make([]byte, smallLen), make([]byte, bulkLen)
	res.emit("wire.probe_frame_ns_64", probeFrame(res, small))
	res.emit("wire.probe_frame_ns_32k", probeFrame(res, bulk))
	for _, mode := range []wire.Mode{wire.ModeBinary, wire.ModeSecure} {
		res.emit("wire.probe_session_ns_64_"+mode.String(), probeSession(res, mode, small))
		res.emit("wire.probe_session_ns_32k_"+mode.String(), probeSession(res, mode, bulk))
	}
	handshakes := make([]float64, 21)
	for i := range handshakes {
		client, server, d, err := sessionPair(wire.ModeSecure)
		if err != nil {
			res.failf("wire probe: secure handshake: %v", err)
		}
		client.Release()
		server.Release()
		handshakes[i] = float64(d) / 1e3
	}
	res.emit("wire.probe_handshake_us_secure", median(handshakes))

	fs := vfs.New()
	if err := fs.WriteFile(ioPath, make([]byte, 16<<20)); err != nil {
		res.failf("vfs probe: %v", err)
	}
	res.emit("chirp.probe_rtt_us_text", probeChirpHop(res, fs, wire.ModeText))
	res.emit("chirp.probe_rtt_us_binary", probeChirpHop(res, fs, wire.ModeBinary))
	res.emit("remoteio.probe_rtt_us_text", probeRemoteioHop(res, fs, wire.ModeText))
	res.emit("remoteio.probe_rtt_us_binary", probeRemoteioHop(res, fs, wire.ModeBinary))
	res.emit("remoteio.probe_rtt_us_secure", probeRemoteioHop(res, fs, wire.ModeSecure))

	off := int64(0)
	next := func() int64 {
		off = (off + bulkLen) % (16<<20 - bulkLen)
		return off
	}
	res.emit("vfs.probe_readat_ns_32k", perOp(func() { _, _ = fs.ReadAt(ioPath, next(), bulkLen) }))
	res.emit("vfs.probe_writeat_ns_32k", perOp(func() { _, _ = fs.WriteAt(ioPath, next(), bulk) }))
}
