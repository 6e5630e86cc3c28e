package faultinject

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"

	"github.com/errscope/grid/internal/wire"
)

// ConnFault is the deterministic fate of every connection through a
// Proxy.  Budgets count payload bytes forwarded in each direction;
// the protocols behind the proxy (Chirp, remote I/O) are strict
// request/response, so a byte offset identifies the same protocol
// instant on every run — determinism without any reliance on timing.
type ConnFault struct {
	// CutToServer cuts the connection after this many bytes have
	// been forwarded from the client toward the server; 0 = never.
	CutToServer int64
	// CutToClient cuts after this many bytes toward the client —
	// mid-stream truncation of a response; 0 = never.
	CutToClient int64
	// Reset aborts with a TCP RST (connection reset by peer)
	// instead of a quiet FIN.
	Reset bool

	// The frame faults parse the binary wire toward the client and
	// target the N-th whole frame (1-based).  Setting any of them
	// switches the to-client direction to a frame-aware relay; they
	// are meaningless on a text-protocol stream.

	// CorruptFrame flips one payload byte of the N-th frame (the
	// command byte when the payload is empty); the frame checksum
	// catches the damage unless FixChecksum repairs it.
	CorruptFrame int64
	// FixChecksum recomputes the frame checksum after CorruptFrame's
	// bit flip, so the damage penetrates the codec and is only caught
	// by the AEAD layer of a secure session — a MAC failure.
	FixChecksum bool
	// TruncateFrame forwards only a header prefix of the N-th frame,
	// then cuts the connection — a frame cut mid-flight.
	TruncateFrame int64
	// ReplayFrame delivers the N-th frame twice; the receiver's
	// sequence counter rejects the duplicate.
	ReplayFrame int64
}

// frameAware reports whether any frame-level fault is armed.
func (f ConnFault) frameAware() bool {
	return f.CorruptFrame > 0 || f.TruncateFrame > 0 || f.ReplayFrame > 0
}

// connClasses maps each connection-level class to the proxy behavior
// the sweep arms from n: the byte budget toward the client for the
// stream classes, or the 1-based frame index for the frame classes.
// Key expiry maps to nil: the session key budget arms it, not a proxy.
var connClasses = map[Class]func(n int64) ConnFault{
	ClassConnReset:     func(n int64) ConnFault { return ConnFault{CutToClient: n, Reset: true} },
	ClassConnTruncate:  func(n int64) ConnFault { return ConnFault{CutToClient: n} },
	ClassFrameCorrupt:  func(n int64) ConnFault { return ConnFault{CorruptFrame: n} },
	ClassFrameTruncate: func(n int64) ConnFault { return ConnFault{TruncateFrame: n} },
	ClassMACFailure:    func(n int64) ConnFault { return ConnFault{CorruptFrame: n, FixChecksum: true} },
	ClassFrameReplay:   func(n int64) ConnFault { return ConnFault{ReplayFrame: n} },
	ClassKeyExpiry:     nil,
}

// ConnFaultFor maps a connection-level fault to the proxy behavior the
// sweep arms, n being Param (default 1: the first byte or frame).
func ConnFaultFor(f Fault) (ConnFault, error) {
	arm, ok := connClasses[f.Class]
	if !ok {
		return ConnFault{}, fmt.Errorf("class %s is not connection-level", f.Class)
	}
	if arm == nil {
		return ConnFault{}, fmt.Errorf("class %s is armed by the session key budget, not the proxy", f.Class)
	}
	return arm(param(f, 1)), nil
}

// Proxy is a TCP relay that injects connection faults between a live
// client and server.  Point a chirp or remoteio client at Addr and
// every connection relays to the target until its byte budget runs
// out, then dies by FIN or RST.  With a zero ConnFault the proxy is
// a faithful wire.
type Proxy struct {
	ln     net.Listener
	target string
	fault  ConnFault

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	cuts   int
	closed bool
	wg     sync.WaitGroup
}

// NewProxy starts a proxy on a loopback port relaying to target.
func NewProxy(target string, fault ConnFault) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{
		ln:     ln,
		target: target,
		fault:  fault,
		conns:  make(map[net.Conn]struct{}),
	}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address, for clients to dial.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Cuts reports how many connections the fault has cut.
func (p *Proxy) Cuts() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cuts
}

// Close stops the proxy and severs every relayed connection.
func (p *Proxy) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.ln.Close()
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// track registers a live connection, or closes it if the proxy is
// already shut down.
func (p *Proxy) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		c.Close()
		return false
	}
	p.conns[c] = struct{}{}
	return true
}

func (p *Proxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return
		}
		server, err := net.Dial("tcp", p.target)
		if err != nil {
			client.Close()
			continue
		}
		if !p.track(client) || !p.track(server) {
			client.Close()
			server.Close()
			continue
		}
		p.wg.Add(2)
		var cutOnce sync.Once
		cut := func() {
			cutOnce.Do(func() {
				p.mu.Lock()
				p.cuts++
				p.mu.Unlock()
				kill(client, p.fault.Reset)
				kill(server, p.fault.Reset)
			})
		}
		go p.pipe(server, client, p.fault.CutToServer, cut)
		if p.fault.frameAware() {
			go p.framePipe(client, server, p.fault, cut)
		} else {
			go p.pipe(client, server, p.fault.CutToClient, cut)
		}
	}
}

// pipe relays src to dst until EOF or the byte budget is exhausted.
// Budget exhaustion cuts the whole connection pair; a natural EOF
// half-closes dst so the other direction can finish draining.
func (p *Proxy) pipe(dst, src net.Conn, budget int64, cut func()) {
	defer p.wg.Done()
	defer p.untrack(src)
	defer p.untrack(dst)
	if budget > 0 {
		if _, err := io.CopyN(dst, src, budget); err == nil {
			cut()
			return
		}
		// The stream ended before the budget; fall through as EOF.
	} else {
		io.Copy(dst, src)
	}
	halfClose(dst)
}

// maxProxyFrame bounds how large a frame the relay will buffer; a
// longer length field means the stream is not the binary wire, and
// the relay falls back to raw copying.
const maxProxyFrame = 1 << 26

// framePipe relays src to dst one wire frame at a time, injecting the
// armed frame fault at its 1-based index.  Frames are cmd(1) seq(2)
// len(4) payload(len) checksum(4); anything that does not parse as a
// frame is relayed raw from that point on.
func (p *Proxy) framePipe(dst, src net.Conn, f ConnFault, cut func()) {
	defer p.wg.Done()
	defer p.untrack(src)
	defer p.untrack(dst)
	br := bufio.NewReader(src)
	var idx int64
	for {
		hdr := make([]byte, 7)
		if _, err := io.ReadFull(br, hdr); err != nil {
			halfClose(dst)
			return
		}
		n := int64(binary.BigEndian.Uint32(hdr[3:7]))
		if n > maxProxyFrame {
			// Not a frame we can buffer; give up on injection and
			// relay the rest of the stream faithfully.
			dst.Write(hdr)
			io.Copy(dst, br)
			halfClose(dst)
			return
		}
		frame := make([]byte, 7+n+4)
		copy(frame, hdr)
		if _, err := io.ReadFull(br, frame[7:]); err != nil {
			// Upstream died mid-frame; forward what arrived.
			dst.Write(frame[:7])
			halfClose(dst)
			return
		}
		idx++
		switch idx {
		case f.TruncateFrame:
			// Forward the command byte and sequence but cut inside the
			// length field: the reader sees a partial frame, never a
			// clean EOF.
			dst.Write(frame[:5])
			cut()
			return
		case f.CorruptFrame:
			pos := 7
			if n == 0 {
				pos = 0
			}
			frame[pos] ^= 0x20
			if f.FixChecksum {
				binary.BigEndian.PutUint32(frame[7+n:], wire.Checksum(frame[:7+n]))
			}
		case f.ReplayFrame:
			if _, err := dst.Write(frame); err != nil {
				return
			}
		}
		if _, err := dst.Write(frame); err != nil {
			return
		}
	}
}

func halfClose(dst net.Conn) {
	if tc, ok := dst.(*net.TCPConn); ok {
		tc.CloseWrite()
	} else {
		dst.Close()
	}
}

// kill severs one connection, with an RST if reset is set: SO_LINGER
// zero makes Close send RST instead of FIN, so the peer observes
// "connection reset" — the abrupt teardown of a crashed server, not
// the polite close of a finished one.
func kill(c net.Conn, reset bool) {
	if tc, ok := c.(*net.TCPConn); ok && reset {
		tc.SetLinger(0)
	}
	c.Close()
}
