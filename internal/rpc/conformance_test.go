package rpc

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/errscope/grid/internal/obs"
	"github.com/errscope/grid/internal/scope"
	"github.com/errscope/grid/internal/wire"
)

// The transport conformance suite: what every client riding this
// package (chirp, remoteio, monitor) promises about a dead, silent or
// lying peer, and what every server promises about Close — checked
// once, here, against a scripted peer, instead of partially in each
// protocol package.

var testProto = Proto{
	Comp:           "test-client",
	Counter:        "test.transport_failures",
	ConnectionLost: "TestConnectionLost",
	RequestTimeout: "TestRequestTimeout",
	BadRequest:     "TestBadRequest",
}

var testSecret = []byte("conformance-secret")

var framedModes = []wire.Mode{wire.ModeBinary, wire.ModeSecure}

// scriptedPeer serves every connection with script.  In the framed
// modes the script starts after the session handshake and gets the
// session; in text mode sess is nil and there is no authentication.
func scriptedPeer(t *testing.T, mode wire.Mode, script func(conn net.Conn, r *bufio.Reader, sess *wire.Session)) string {
	t.Helper()
	a := NewAcceptor("test", func(conn net.Conn) {
		r := bufio.NewReader(conn)
		if mode == wire.ModeText {
			script(conn, r, nil)
			return
		}
		sess := wire.NewSession(r, conn, wire.Config{Secret: testSecret})
		defer sess.Release()
		if sess.ServerHandshake() == nil {
			script(conn, r, sess)
		}
	})
	addr, err := a.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	return addr
}

func dialPeer(t *testing.T, addr string, o DialOptions) *Client {
	t.Helper()
	c, err := Dial(&testProto, addr, o, testSecret, func(*Client) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// everyCall issues one of each kind of call the mode supports and
// returns their errors.
func everyCall(c *Client) []error {
	var errs []error
	add := func(err error) { errs = append(errs, err) }
	if c.Binary() {
		_, err := c.CallBin(0x90, []byte("x"))
		add(err)
		_, err = c.CallStatBin(0x91, "/p")
		add(err)
		_, err = c.CallListBin(0x92, "/p")
		add(err)
	} else {
		_, _, err := c.Call("verb\n", 0)
		add(err)
		_, _, err = c.Call("read\n", 4)
		add(err)
		_, err = c.CallStat("stat\n")
		add(err)
		_, err = c.CallList("list\n")
		add(err)
	}
	_, _, err := c.Recv()
	add(err)
	return errs
}

func wantEscaping(t *testing.T, err error, code string, sc scope.Scope) *scope.Error {
	t.Helper()
	se, ok := scope.AsError(err)
	if !ok || se.Kind != scope.KindEscaping || se.Code != code || se.Scope != sc {
		t.Fatalf("error = %v, want escaping %s at %s scope", err, code, sc)
	}
	return se
}

// wantSticky checks the connection is dead for good: every later call
// returns the identical error, and the death was reported exactly once.
func wantSticky(t *testing.T, c *Client, rec *obs.Recorder, first error) {
	t.Helper()
	for i, err := range everyCall(c) {
		if err != first {
			t.Errorf("call %d after the death = %v, want the identical sticky %v", i, err, first)
		}
	}
	se, _ := scope.AsError(first)
	evs := rec.Events()
	if len(evs) != 1 {
		t.Fatalf("%d obs events for one connection death, want 1: %+v", len(evs), evs)
	}
	ev := evs[0]
	if ev.Comp != testProto.Comp || ev.Kind != obs.KindError || ev.Job != 7 ||
		ev.Code != se.Code || ev.Scope != se.Scope.String() || ev.EKind != se.Kind.String() {
		t.Errorf("origin event = %+v, want one %s error for job 7 matching %v", ev, testProto.Comp, se)
	}
	if n := rec.Counter(testProto.Counter); n != 1 {
		t.Errorf("%s = %d, want 1", testProto.Counter, n)
	}
}

func traced(c *Client) *obs.Recorder {
	rec := obs.NewRecorder()
	c.Trace, c.TraceJob = rec, 7
	return rec
}

// A peer that answers one call and hangs up: the next call is an
// escaping ConnectionLost, and it sticks.
func TestTransportDeathIsStickyAndReportedOnce(t *testing.T) {
	for _, mode := range []wire.Mode{wire.ModeText, wire.ModeBinary, wire.ModeSecure} {
		t.Run(mode.String(), func(t *testing.T) {
			addr := scriptedPeer(t, mode, func(conn net.Conn, r *bufio.Reader, sess *wire.Session) {
				if sess != nil {
					if _, _, err := sess.ReadMsg(); err == nil {
						sess.WriteMsg(wire.CmdOK, []byte("pong"))
					}
					return
				}
				if _, err := r.ReadString('\n'); err == nil {
					io.WriteString(conn, "ok pong\n")
				}
			})
			c := dialPeer(t, addr, DialOptions{Mode: mode})
			rec := traced(c)
			var err error
			if c.Binary() {
				var pl []byte
				if pl, err = c.CallBin(0x90); err != nil || string(pl) != "pong" {
					t.Fatalf("first call = %q, %v", pl, err)
				}
				_, err = c.CallBin(0x90)
			} else {
				var v string
				if v, _, err = c.Call("ping\n", 0); err != nil || v != "pong" {
					t.Fatalf("first call = %q, %v", v, err)
				}
				_, _, err = c.Call("ping\n", 0)
			}
			// The session layer may have named the dead transport itself.
			code := testProto.ConnectionLost
			if se, ok := scope.AsError(err); ok && c.Binary() {
				code = se.Code
			}
			wantEscaping(t, err, code, scope.ScopeNetwork)
			wantSticky(t, c, rec, err)
		})
	}
}

// A client the caller closed is the caller's mistake — function scope,
// explicit — not a transport failure, and it reports nothing.
func TestClosedClientIsFunctionScope(t *testing.T) {
	for _, mode := range []wire.Mode{wire.ModeText, wire.ModeBinary} {
		addr := scriptedPeer(t, mode, func(conn net.Conn, r *bufio.Reader, _ *wire.Session) {
			io.Copy(io.Discard, r)
		})
		c := dialPeer(t, addr, DialOptions{Mode: mode})
		rec := traced(c)
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if err := c.Quit(0x9F); err != nil {
			t.Errorf("%s: quit after close = %v", mode, err)
		}
		for i, err := range everyCall(c) {
			se, ok := scope.AsError(err)
			if !ok || se.Scope != scope.ScopeFunction || se.Code != testProto.BadRequest || se.Kind != scope.KindExplicit {
				t.Errorf("%s: call %d on a closed client = %v", mode, i, err)
			}
		}
		if len(rec.Events()) != 0 || rec.Counter(testProto.Counter) != 0 {
			t.Errorf("%s: closing a client reported a transport failure", mode)
		}
	}
}

// A peer that reads and never answers: the deadline bounds the call,
// which escapes as RequestTimeout and sticks.
func TestExpiredDeadlineIsRequestTimeout(t *testing.T) {
	addr := scriptedPeer(t, wire.ModeText, func(conn net.Conn, r *bufio.Reader, _ *wire.Session) {
		io.Copy(io.Discard, r)
	})
	c := dialPeer(t, addr, DialOptions{IOTimeout: 100 * time.Millisecond})
	rec := traced(c)
	start := time.Now()
	_, _, err := c.Call("ping\n", 0)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("call took %v, the deadline did not bound it", elapsed)
	}
	wantEscaping(t, err, testProto.RequestTimeout, scope.ScopeNetwork)
	wantSticky(t, c, rec, err)
}

// The deadline covers the opening exchange too: a server that accepts
// and never speaks fails the dial, in every mode.
func TestSilentPeerFailsTheDial(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
		}
	}()
	for _, mode := range []wire.Mode{wire.ModeText, wire.ModeBinary, wire.ModeSecure} {
		start := time.Now()
		_, err := Dial(&testProto, ln.Addr().String(), DialOptions{Mode: mode, IOTimeout: 100 * time.Millisecond},
			testSecret, func(c *Client) error { return c.AnswerChallenge(testSecret) })
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("%s: dial took %v", mode, elapsed)
		}
		se, ok := scope.AsError(err)
		if !ok || se.Kind != scope.KindEscaping || se.Scope != scope.ScopeNetwork {
			t.Fatalf("%s: dial to a silent peer = %v, want an escaping network-scope error", mode, err)
		}
		if mode == wire.ModeText && se.Code != testProto.RequestTimeout {
			t.Errorf("text: silent challenge = %v, want %s", err, testProto.RequestTimeout)
		}
	}
	// Nothing listening at all is a lost connection.
	ln.Close()
	_, err = Dial(&testProto, ln.Addr().String(), DialOptions{Timeout: time.Second}, nil, nil)
	wantEscaping(t, err, testProto.ConnectionLost, scope.ScopeNetwork)
}

// A frame-layer fault already carries a scoped cause; it keeps its
// code when it escapes, and key expiry keeps its wider scope.
func TestFrameLayerCauseKeepsItsCode(t *testing.T) {
	// rawReply answers the first request with hand-made bytes written
	// under the session: seq is the frame counter the client expects
	// next, one past the server's handshake frames.
	rawReply := func(mode wire.Mode, frame func(seq uint16) []byte) string {
		return scriptedPeer(t, mode, func(conn net.Conn, _ *bufio.Reader, sess *wire.Session) {
			if _, _, err := sess.ReadMsg(); err != nil {
				return
			}
			seq := uint16(1) // after MsgAuthOK
			if mode == wire.ModeSecure {
				seq = 2 // after MsgHelloAck, MsgProofAck
			}
			conn.Write(frame(seq))
			io.Copy(io.Discard, conn)
		})
	}
	cases := []struct {
		name  string
		mode  wire.Mode
		code  string
		frame func(seq uint16) []byte
	}{
		{"checksum", wire.ModeBinary, wire.CodeChecksumMismatch, func(seq uint16) []byte {
			f := wire.AppendFrame(nil, wire.CmdOK, seq, []byte("payload"))
			f[len(f)-6] ^= 0x40
			return f
		}},
		{"replay", wire.ModeBinary, wire.CodeReplayedFrame, func(seq uint16) []byte {
			return wire.AppendFrame(nil, wire.MsgAuthOK, seq-1)
		}},
		{"mac", wire.ModeSecure, wire.CodeMACFailure, func(seq uint16) []byte {
			return wire.AppendFrame(nil, wire.CmdOK, seq, []byte("not a sealed payload, but well framed"))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := dialPeer(t, rawReply(tc.mode, tc.frame), DialOptions{Mode: tc.mode})
			rec := traced(c)
			_, err := c.CallBin(0x90)
			wantEscaping(t, err, tc.code, scope.ScopeNetwork)
			wantSticky(t, c, rec, err)
		})
	}
	t.Run("key-expiry", func(t *testing.T) {
		addr := scriptedPeer(t, wire.ModeSecure, func(_ net.Conn, _ *bufio.Reader, sess *wire.Session) {
			for {
				if _, _, err := sess.ReadMsg(); err != nil || sess.WriteMsg(wire.CmdOK) != nil {
					return
				}
			}
		})
		// Sealed frames sent: the handshake proof, then one call.
		c := dialPeer(t, addr, DialOptions{Mode: wire.ModeSecure, RekeyAfter: 2})
		rec := traced(c)
		if _, err := c.CallBin(0x90); err != nil {
			t.Fatal(err)
		}
		_, err := c.CallBin(0x90)
		wantEscaping(t, err, wire.CodeKeyExpired, scope.ScopeLocalResource)
		wantSticky(t, c, rec, err)
	})
}

// A reply the client cannot parse means the stream can no longer be
// trusted: the connection dies, as a lost connection.
func TestMalformedReplyKillsTheConnection(t *testing.T) {
	textCases := []struct {
		name, reply string
		call        func(c *Client) error
	}{
		{"unknown verb", "maybe\n", func(c *Client) error { _, _, err := c.Call("x\n", 0); return err }},
		{"bad error line", "error NoScope\n", func(c *Client) error { _, _, err := c.Call("x\n", 0); return err }},
		{"bad data length", "ok many\n", func(c *Client) error { _, _, err := c.Call("x\n", 8); return err }},
		{"data length over limit", fmt.Sprintf("ok %d\n", MaxData+1), func(c *Client) error { _, _, err := c.Call("x\n", 8); return err }},
		{"short data", "ok 8\nabc", func(c *Client) error { _, _, err := c.Call("x\n", 8); return err }},
		{"bad stat record", "ok 12 0 unquoted\n", func(c *Client) error { _, err := c.CallStat("x\n"); return err }},
		{"bad list count", "ok 1 2\n", func(c *Client) error { _, err := c.CallList("x\n"); return err }},
		{"bad list entry", "ok 1\n5 x \"/p\"\n", func(c *Client) error { _, err := c.CallList("x\n"); return err }},
		{"short list", "ok 2\n5 0 \"/p\"\n", func(c *Client) error { _, err := c.CallList("x\n"); return err }},
	}
	for _, tc := range textCases {
		t.Run(tc.name, func(t *testing.T) {
			addr := scriptedPeer(t, wire.ModeText, func(conn net.Conn, r *bufio.Reader, _ *wire.Session) {
				if _, err := r.ReadString('\n'); err == nil {
					io.WriteString(conn, tc.reply)
				}
			})
			c := dialPeer(t, addr, DialOptions{})
			rec := traced(c)
			err := tc.call(c)
			wantEscaping(t, err, testProto.ConnectionLost, scope.ScopeNetwork)
			wantSticky(t, c, rec, err)
		})
	}

	frameCases := []struct {
		name    string
		cmd     byte
		payload []byte
		call    func(c *Client) error
	}{
		{"unknown reply frame", 0x55, nil, func(c *Client) error { _, err := c.CallBin(0x90); return err }},
		{"bad error payload", wire.CmdErr, []byte{1}, func(c *Client) error { _, err := c.CallBin(0x90); return err }},
		{"short stat", wire.CmdOK, []byte{0, 0}, func(c *Client) error { _, err := c.CallStatBin(0x90, "/p"); return err }},
		{"short list", wire.CmdOK, []byte{0}, func(c *Client) error { _, err := c.CallListBin(0x90, "/p"); return err }},
		{"list count over limit", wire.CmdOK, wire.AppendU32(nil, maxList+1), func(c *Client) error { _, err := c.CallListBin(0x90, "/p"); return err }},
		{"list entries cut off", wire.CmdOK, wire.AppendU32(nil, 2), func(c *Client) error { _, err := c.CallListBin(0x90, "/p"); return err }},
	}
	for _, tc := range frameCases {
		t.Run(tc.name, func(t *testing.T) {
			addr := scriptedPeer(t, wire.ModeBinary, func(_ net.Conn, _ *bufio.Reader, sess *wire.Session) {
				if _, _, err := sess.ReadMsg(); err == nil {
					sess.WriteMsg(tc.cmd, tc.payload)
				}
			})
			c := dialPeer(t, addr, DialOptions{Mode: wire.ModeBinary})
			rec := traced(c)
			err := tc.call(c)
			wantEscaping(t, err, testProto.ConnectionLost, scope.ScopeNetwork)
			wantSticky(t, c, rec, err)
		})
	}
}

// The server's explicit errors are not transport failures: they come
// back as sent, and the connection lives on.
func TestExplicitErrorsLeaveTheConnectionAlive(t *testing.T) {
	refusal := scope.New(scope.ScopeFile, "FileNotFound", "no  such  file")
	for _, mode := range []wire.Mode{wire.ModeText, wire.ModeBinary, wire.ModeSecure} {
		// The peer refuses the first request and grants the rest.
		addr := scriptedPeer(t, mode, func(conn net.Conn, r *bufio.Reader, sess *wire.Session) {
			w := bufio.NewWriter(conn)
			var answer error = refusal
			for {
				if sess != nil {
					if _, _, err := sess.ReadMsg(); err != nil {
						return
					}
					if answer != nil {
						sess.WriteError(answer, "", scope.ScopeFile)
					} else {
						sess.WriteMsg(wire.CmdOK)
					}
				} else {
					if _, err := r.ReadString('\n'); err != nil {
						return
					}
					Reply{Err: answer}.WriteTo(w, "", scope.ScopeFile)
					w.Flush()
				}
				answer = nil
			}
		})
		c := dialPeer(t, addr, DialOptions{Mode: mode})
		rec := traced(c)
		call := func() error {
			if c.Binary() {
				_, err := c.CallBin(0x90)
				return err
			}
			_, _, err := c.Call("x\n", 0)
			return err
		}
		se, ok := scope.AsError(call())
		if !ok || se.Code != refusal.Code || se.Scope != refusal.Scope || se.Kind != scope.KindExplicit || se.Message != refusal.Message {
			t.Errorf("%s: explicit error = %v, want %v", mode, se, refusal)
		}
		if err := call(); err != nil {
			t.Errorf("%s: call after an explicit error = %v", mode, err)
		}
		if len(rec.Events()) != 0 {
			t.Errorf("%s: an explicit error was reported as a transport failure", mode)
		}
	}
}

// A server's refusal of the handshake secret is its explicit error,
// passed through untouched.
func TestHandshakeRefusalPassesThrough(t *testing.T) {
	for _, mode := range framedModes {
		addr := scriptedPeer(t, mode, func(net.Conn, *bufio.Reader, *wire.Session) {})
		_, err := Dial(&testProto, addr, DialOptions{Mode: mode}, []byte("wrong"), nil)
		se, ok := scope.AsError(err)
		if !ok || se.Kind != scope.KindExplicit || se.Code != "NotAuthenticated" || se.Scope != scope.ScopeProcess {
			t.Errorf("%s: wrong secret = %v", mode, err)
		}
	}
}

// The text HMAC challenge: the right key authenticates, a wrong key or
// a garbled answer is refused with the server's own error, and a
// server that does not challenge is a transport failure.
func TestChallenge(t *testing.T) {
	refusal := scope.New(scope.ScopeLocalResource, "TestAuthFailed", "bad authenticator")
	addr := scriptedPeer(t, wire.ModeText, func(conn net.Conn, r *bufio.Reader, _ *wire.Session) {
		w := bufio.NewWriter(conn)
		if Challenge(r, w, testSecret, refusal) {
			r.ReadString('\n')
			io.WriteString(conn, "ok authed\n")
		}
	})
	answer := func(key []byte) func(*Client) error {
		return func(c *Client) error { return c.AnswerChallenge(key) }
	}
	c, err := Dial(&testProto, addr, DialOptions{}, nil, answer(testSecret))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if v, _, err := c.Call("x\n", 0); err != nil || v != "authed" {
		t.Fatalf("call after the challenge = %q, %v", v, err)
	}

	_, err = Dial(&testProto, addr, DialOptions{}, nil, answer([]byte("wrong")))
	se, ok := scope.AsError(err)
	if !ok || se.Code != refusal.Code || se.Scope != refusal.Scope || se.Kind != scope.KindExplicit {
		t.Errorf("wrong key = %v, want %v", err, refusal)
	}
	for _, garbled := range []string{"auth\n", "auth zz\n", "hello there\n", "auth 00 11\n"} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		r := bufio.NewReader(conn)
		r.ReadString('\n')
		io.WriteString(conn, garbled)
		if line, _ := r.ReadString('\n'); !strings.HasPrefix(line, "error "+refusal.Code) {
			t.Errorf("answer %q -> %q, want the refusal", garbled, line)
		}
		conn.Close()
	}

	for _, opening := range []string{"hello\n", "challenge zz\n", "challenge 00 11\n"} {
		addr := scriptedPeer(t, wire.ModeText, func(conn net.Conn, r *bufio.Reader, _ *wire.Session) {
			io.WriteString(conn, opening)
			io.Copy(io.Discard, r)
		})
		_, err := Dial(&testProto, addr, DialOptions{}, nil, answer(testSecret))
		wantEscaping(t, err, testProto.ConnectionLost, scope.ScopeNetwork)
	}
}

// Recv reads a one-way stream with no deadline, and a clean close is
// io.EOF, not a transport failure.
func TestRecvStream(t *testing.T) {
	for _, mode := range []wire.Mode{wire.ModeText, wire.ModeBinary} {
		addr := scriptedPeer(t, mode, func(conn net.Conn, _ *bufio.Reader, sess *wire.Session) {
			time.Sleep(150 * time.Millisecond) // idle past the I/O timeout
			if sess != nil {
				sess.WriteMsg(0xC1, []byte("rec one"))
				return
			}
			io.WriteString(conn, "rec one\n")
		})
		c := dialPeer(t, addr, DialOptions{Mode: mode, IOTimeout: 50 * time.Millisecond})
		rec := traced(c)
		cmd, line, err := c.Recv()
		if err != nil || line != "rec one" || (cmd != 0) != c.Binary() {
			t.Fatalf("%s: recv = %#x %q, %v", mode, cmd, line, err)
		}
		if _, _, err := c.Recv(); !errors.Is(err, io.EOF) {
			t.Fatalf("%s: recv at the end of the stream = %v, want io.EOF", mode, err)
		}
		if len(rec.Events()) != 0 {
			t.Errorf("%s: the end of a stream was reported as a transport failure", mode)
		}
	}
}

// Quit says goodbye in the mode's own envelope before closing.
func TestQuitSendsTheFarewell(t *testing.T) {
	for _, mode := range []wire.Mode{wire.ModeText, wire.ModeBinary} {
		got := make(chan string, 1)
		addr := scriptedPeer(t, mode, func(_ net.Conn, r *bufio.Reader, sess *wire.Session) {
			if sess != nil {
				cmd, _, _ := sess.ReadMsg()
				got <- fmt.Sprintf("%#x", cmd)
				return
			}
			line, _ := r.ReadString('\n')
			got <- line
		})
		c := dialPeer(t, addr, DialOptions{Mode: mode})
		if err := c.Quit(0x9f); err != nil {
			t.Fatal(err)
		}
		want := map[wire.Mode]string{wire.ModeText: "quit\n", wire.ModeBinary: "0x9f"}[mode]
		if farewell := <-got; farewell != want {
			t.Errorf("%s: farewell = %q, want %q", mode, farewell, want)
		}
	}
}

// Close on the server closes live connections, refuses late ones, and
// returns only after every handler has.
func TestAcceptorClose(t *testing.T) {
	var live, finished atomic.Int32
	entered := make(chan struct{}, 4)
	a := NewAcceptor("test", func(conn net.Conn) {
		live.Add(1)
		entered <- struct{}{}
		io.Copy(io.Discard, conn) // until Close closes the connection
		time.Sleep(20 * time.Millisecond)
		finished.Add(1)
	})
	addr, err := a.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var conns []net.Conn
	for i := 0; i < 3; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conns = append(conns, conn)
		<-entered
	}
	a.Close()
	if live.Load() != 3 || finished.Load() != 3 {
		t.Fatalf("Close returned with %d of %d handlers finished", finished.Load(), live.Load())
	}
	for i, conn := range conns {
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
			t.Errorf("live connection %d after Close: read = %v, want io.EOF", i, err)
		}
	}
	if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		conn.Close()
		t.Error("a closed server accepted a late connection")
	}
	a.Close() // idempotent

	if _, err := NewAcceptor("test", nil).Listen("256.0.0.1:bad"); err == nil || !strings.HasPrefix(err.Error(), "test: listen:") {
		t.Errorf("listen on a bad address = %v", err)
	}
}
