package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"testing"

	"github.com/errscope/grid/internal/scope"
)

// sessionPair runs both handshakes over an in-memory pipe, with an
// optional writer wrapper on the server's send side (for tampering).
func sessionPair(t *testing.T, clientCfg, serverCfg Config, wrap func(io.Writer) io.Writer) (*Session, *Session, chan error) {
	t.Helper()
	cc, sc := net.Pipe()
	t.Cleanup(func() { cc.Close(); sc.Close() })
	var sw io.Writer = sc
	if wrap != nil {
		sw = wrap(sc)
	}
	client := NewSession(bufio.NewReader(cc), cc, clientCfg)
	server := NewSession(bufio.NewReader(sc), sw, serverCfg)
	srvErr := make(chan error, 1)
	go func() { srvErr <- server.ServerHandshake() }()
	if err := client.ClientHandshake(); err != nil {
		t.Cleanup(func() { <-srvErr })
		t.Fatalf("client handshake: %v", err)
	}
	if err := <-srvErr; err != nil {
		t.Fatalf("server handshake: %v", err)
	}
	return client, server, srvErr
}

// echo runs a one-message echo loop on the server session.
func echo(t *testing.T, server *Session, done chan<- error) {
	cmd, payload, err := server.ReadMsg()
	if err != nil {
		done <- err
		return
	}
	done <- server.WriteMsg(cmd, payload)
}

func testSessionEcho(t *testing.T, mode Mode) {
	secret := []byte("cookie-123")
	client, server, _ := sessionPair(t,
		Config{Mode: mode, Secret: secret},
		Config{Secret: secret}, nil)
	if client.Mode() != mode || server.Mode() != mode {
		t.Fatalf("modes: client %s server %s, want %s", client.Mode(), server.Mode(), mode)
	}
	done := make(chan error, 1)
	go echo(t, server, done)
	msg := bytes.Repeat([]byte("payload "), 100)
	if err := client.WriteMsg(0x90, msg); err != nil {
		t.Fatal(err)
	}
	cmd, payload, err := client.ReadMsg()
	if err != nil {
		t.Fatal(err)
	}
	if cmd != 0x90 || !bytes.Equal(payload, msg) {
		t.Fatalf("echo mismatch: cmd=%#x, %d bytes", cmd, len(payload))
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestSessionBinaryEcho(t *testing.T) { testSessionEcho(t, ModeBinary) }
func TestSessionSecureEcho(t *testing.T) { testSessionEcho(t, ModeSecure) }

// TestSecurePayloadNotPlaintext checks the sealed bytes on the wire do
// not contain the message (or the secret).
func TestSecurePayloadNotPlaintext(t *testing.T) {
	secret := []byte("super-secret-cookie")
	var wire bytes.Buffer
	cc, sc := net.Pipe()
	defer cc.Close()
	defer sc.Close()
	client := NewSession(bufio.NewReader(cc), io.MultiWriter(cc, &wire), Config{Mode: ModeSecure, Secret: secret})
	server := NewSession(bufio.NewReader(sc), sc, Config{Secret: secret})
	srvErr := make(chan error, 1)
	go func() {
		if err := server.ServerHandshake(); err != nil {
			srvErr <- err
			return
		}
		_, _, err := server.ReadMsg()
		srvErr <- err
	}()
	if err := client.ClientHandshake(); err != nil {
		t.Fatal(err)
	}
	marker := []byte("MARKER-plaintext-should-not-appear")
	if err := client.WriteMsg(0x90, marker); err != nil {
		t.Fatal(err)
	}
	if err := <-srvErr; err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(wire.Bytes(), marker) {
		t.Fatal("plaintext marker visible on the wire")
	}
	if bytes.Contains(wire.Bytes(), secret) {
		t.Fatal("shared secret visible on the wire")
	}
}

func testSessionWrongSecret(t *testing.T, mode Mode) {
	cc, sc := net.Pipe()
	defer cc.Close()
	defer sc.Close()
	client := NewSession(bufio.NewReader(cc), cc, Config{Mode: mode, Secret: []byte("right")})
	server := NewSession(bufio.NewReader(sc), sc, Config{Secret: []byte("wrong")})
	srvErr := make(chan error, 1)
	go func() { srvErr <- server.ServerHandshake() }()
	err := client.ClientHandshake()
	if err == nil {
		t.Fatal("handshake should fail")
	}
	se, ok := scope.AsError(err)
	if !ok {
		t.Fatalf("unscoped: %v", err)
	}
	if se.Scope != scope.ScopeProcess || se.Code != "NotAuthenticated" || se.Kind != scope.KindExplicit {
		t.Fatalf("client error = %+v", se)
	}
	if err := <-srvErr; err == nil {
		t.Fatal("server should report the failure too")
	}
}

func TestSessionBinaryWrongSecret(t *testing.T) { testSessionWrongSecret(t, ModeBinary) }
func TestSessionSecureWrongSecret(t *testing.T) { testSessionWrongSecret(t, ModeSecure) }

func TestSessionAuthFailureHook(t *testing.T) {
	cc, sc := net.Pipe()
	defer cc.Close()
	defer sc.Close()
	client := NewSession(bufio.NewReader(cc), cc, Config{Mode: ModeBinary, Secret: []byte("a")})
	server := NewSession(bufio.NewReader(sc), sc, Config{
		Secret: []byte("b"),
		AuthFailure: func() *scope.Error {
			return scope.New(scope.ScopeLocalResource, "AuthenticationFailed", "bad key")
		},
	})
	srvErr := make(chan error, 1)
	go func() { srvErr <- server.ServerHandshake() }()
	err := client.ClientHandshake()
	<-srvErr
	se, ok := scope.AsError(err)
	if !ok || se.Code != "AuthenticationFailed" || se.Scope != scope.ScopeLocalResource {
		t.Fatalf("err = %v", err)
	}
}

// tamperWriter flips a payload byte of the nth frame it sees.  With
// fixSum it recomputes the checksum so the corruption penetrates to
// the AEAD layer (a MAC failure); without, the frame layer catches it
// (a checksum mismatch).
type tamperWriter struct {
	w      io.Writer
	n      int
	fixSum bool
	dup    bool
	count  int
}

func (tw *tamperWriter) Write(p []byte) (int, error) {
	tw.count++
	if tw.count != tw.n || len(p) < FrameOverhead+1 {
		return tw.w.Write(p)
	}
	if tw.dup {
		if _, err := tw.w.Write(p); err != nil {
			return 0, err
		}
		return tw.w.Write(p)
	}
	mut := append([]byte(nil), p...)
	mut[frameHeaderLen] ^= 0x20
	if tw.fixSum {
		binary.BigEndian.PutUint32(mut[len(mut)-4:], Checksum(mut[:len(mut)-4]))
	}
	n, err := tw.w.Write(mut)
	return n, err
}

func testServerFrameFault(t *testing.T, tw *tamperWriter, wantCode string) {
	secret := []byte("k")
	client, server, _ := sessionPair(t,
		Config{Mode: ModeSecure, Secret: secret},
		Config{Secret: secret},
		func(w io.Writer) io.Writer { tw.w = w; return tw })
	done := make(chan error, 1)
	go echo(t, server, done)
	if err := client.WriteMsg(0x90, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	_, _, err := client.ReadMsg()
	se, ok := scope.AsError(err)
	if !ok {
		t.Fatalf("unscoped: %v", err)
	}
	if se.Code != wantCode || se.Scope != scope.ScopeNetwork {
		t.Fatalf("got %s/%s, want network/%s", se.Scope, se.Code, wantCode)
	}
	<-done
}

// Server frames toward the client in ModeSecure: 1 = hello-ack,
// 2 = proof-ack, 3 = first app frame.
func TestSessionChecksumMismatch(t *testing.T) {
	testServerFrameFault(t, &tamperWriter{n: 3}, CodeChecksumMismatch)
}

func TestSessionMACFailure(t *testing.T) {
	testServerFrameFault(t, &tamperWriter{n: 3, fixSum: true}, CodeMACFailure)
}

func TestSessionReplay(t *testing.T) {
	secret := []byte("k")
	tw := &tamperWriter{n: 3, dup: true}
	client, server, _ := sessionPair(t,
		Config{Mode: ModeSecure, Secret: secret},
		Config{Secret: secret},
		func(w io.Writer) io.Writer { tw.w = w; return tw })
	done := make(chan error, 1)
	go echo(t, server, done)
	if err := client.WriteMsg(0x90, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := client.ReadMsg(); err != nil {
		t.Fatal(err) // the original passes
	}
	_, _, err := client.ReadMsg() // the duplicate must not
	<-done
	se, ok := scope.AsError(err)
	if !ok || se.Code != CodeReplayedFrame || se.Scope != scope.ScopeNetwork {
		t.Fatalf("replayed frame: %v", err)
	}
}

func TestSessionKeyExpiry(t *testing.T) {
	secret := []byte("k")
	// The secure handshake spends one sealed frame per direction
	// (proof / proof-ack), so a budget of 3 leaves two app messages.
	client, server, _ := sessionPair(t,
		Config{Mode: ModeSecure, Secret: secret, RekeyAfter: 3},
		Config{Secret: secret}, nil)
	for i := 0; i < 2; i++ {
		done := make(chan error, 1)
		go echo(t, server, done)
		if err := client.WriteMsg(0x90, []byte("x")); err != nil {
			t.Fatalf("msg %d: %v", i, err)
		}
		if _, _, err := client.ReadMsg(); err != nil {
			t.Fatalf("msg %d read: %v", i, err)
		}
		<-done
	}
	err := client.WriteMsg(0x90, []byte("over budget"))
	se, ok := scope.AsError(err)
	if !ok {
		t.Fatalf("unscoped: %v", err)
	}
	if se.Code != CodeKeyExpired || se.Scope != scope.ScopeLocalResource || se.Kind != scope.KindExplicit {
		t.Fatalf("key expiry error = %+v", se)
	}
}

func TestSessionRequiresHandshake(t *testing.T) {
	var buf bytes.Buffer
	s := NewSession(bufio.NewReader(&buf), &buf, Config{Mode: ModeBinary})
	if err := s.WriteMsg(0x90); err == nil {
		t.Fatal("WriteMsg before handshake should fail")
	}
	if _, _, err := s.ReadMsg(); err == nil {
		t.Fatal("ReadMsg before handshake should fail")
	}
}

func TestModeString(t *testing.T) {
	if ModeText.String() != "text" || ModeBinary.String() != "binary" || ModeSecure.String() != "secure" {
		t.Fatal("mode names")
	}
	if Mode(9).String() != "mode(?)" {
		t.Fatal("unknown mode name")
	}
}

// TestOversizedMessageLeavesBoundedBuffers: a message past BufSize
// grows the frame buffers that carry it, and they are dropped once the
// next message has gone through, so neither the session nor, after
// Release, the buffer pool keeps more than BufSize per buffer.  (The
// pool used to take back buffers of any size, so one 16 MiB frame left
// a 24 MiB buffer for every later session.)
func TestOversizedMessageLeavesBoundedBuffers(t *testing.T) {
	for _, mode := range []Mode{ModeBinary, ModeSecure} {
		t.Run(mode.String(), func(t *testing.T) {
			secret := []byte("k")
			client, server, _ := sessionPair(t, Config{Mode: mode, Secret: secret}, Config{Secret: secret}, nil)
			for _, n := range []int{8 << 20, 16} {
				done := make(chan error, 1)
				go echo(t, server, done)
				if err := client.WriteMsg(0x90, make([]byte, n)); err != nil {
					t.Fatal(err)
				}
				if _, got, err := client.ReadMsg(); err != nil || len(got) != n {
					t.Fatalf("%d-byte echo: %d bytes, %v", n, len(got), err)
				}
				if err := <-done; err != nil {
					t.Fatal(err)
				}
			}
			for _, s := range []*Session{client, server} {
				if r, w := cap(s.fr.buf), cap(s.fw.buf); r > BufSize || w > BufSize {
					t.Errorf("after a small message: read buffer %d, write buffer %d bytes, want at most %d", r, w, BufSize)
				}
				s.Release()
			}
			for i := 0; i < 4; i++ {
				if buf := frameBufPool.Get().([]byte); cap(buf) > BufSize {
					t.Errorf("pooled buffer of %d bytes, want at most %d", cap(buf), BufSize)
				}
			}
		})
	}
}
