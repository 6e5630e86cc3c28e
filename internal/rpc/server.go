package rpc

import (
	"bufio"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"

	"github.com/errscope/grid/internal/scope"
	"github.com/errscope/grid/internal/wire"
)

// Acceptor is the TCP accept loop under a protocol server: it owns the
// listener and the set of live connections, and runs one handler
// goroutine per connection.  The protocol servers embed it for its
// Listen and Close.
type Acceptor struct {
	name  string
	serve func(net.Conn)

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// NewAcceptor returns an accept loop that hands each connection to
// serve and closes it when serve returns; name prefixes listen errors.
func NewAcceptor(name string, serve func(net.Conn)) *Acceptor {
	return &Acceptor{name: name, serve: serve, conns: make(map[net.Conn]struct{})}
}

// Listen starts accepting on addr ("127.0.0.1:0" for an ephemeral
// loopback port) and returns the bound address.
func (a *Acceptor) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("%s: listen: %w", a.name, err)
	}
	a.mu.Lock()
	a.listener = ln
	a.mu.Unlock()
	a.wg.Add(1)
	go a.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (a *Acceptor) acceptLoop(ln net.Listener) {
	defer a.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		a.mu.Lock()
		if a.closed {
			a.mu.Unlock()
			conn.Close()
			return
		}
		a.conns[conn] = struct{}{}
		a.wg.Add(1)
		a.mu.Unlock()
		go func() {
			defer a.wg.Done()
			defer conn.Close()
			a.serve(conn)
			a.mu.Lock()
			delete(a.conns, conn)
			a.mu.Unlock()
		}()
	}
}

// Close shuts the listener and every live connection down and returns
// once all handlers have.
func (a *Acceptor) Close() {
	a.mu.Lock()
	a.closed = true
	if a.listener != nil {
		a.listener.Close()
	}
	for c := range a.conns {
		c.Close()
	}
	a.mu.Unlock()
	a.wg.Wait()
}

// ServeFramed runs one framed connection: the server handshake, then
// one reply per request frame until the peer sends quit (answered with
// an empty ok) or hangs up.  handle returns a request's reply payload;
// its error goes back in-band as an error frame, at fallbackCode and
// local-resource scope if it is not scoped, since a frame cannot
// desynchronize the stream.  It returns
// what ended the session: nil for a quit or a clean close, else the
// failed handshake, read or reply.
func ServeFramed(r *bufio.Reader, conn net.Conn, cfg wire.Config, quit byte, fallbackCode string,
	handle func(cmd byte, pl []byte) ([]byte, error)) error {
	sess := wire.NewSession(r, conn, cfg)
	defer sess.Release()
	if err := sess.ServerHandshake(); err != nil {
		return err
	}
	for {
		cmd, pl, err := sess.ReadMsg()
		if err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
		if cmd == quit {
			return sess.WriteMsg(wire.CmdOK)
		}
		if resp, err := handle(cmd, pl); err != nil {
			err = sess.WriteError(err, fallbackCode, scope.ScopeLocalResource)
		} else {
			err = sess.WriteMsg(wire.CmdOK, resp)
		}
		if err != nil {
			return err
		}
	}
}

// ServeText runs the requests of one text connection until the peer
// sends quit (answered with ok) or hangs up, or handle, which writes
// each other request's reply, says the session is over.  It returns
// what ended the session: nil for a quit, a clean close or a hangup
// handle chose, else handle's error, or the failed read or flush.
func ServeText(r *bufio.Reader, w *bufio.Writer, handle func(verb string, a *Args) (more bool, err error)) error {
	for {
		line, err := r.ReadString('\n')
		if err == io.EOF {
			return nil
		} else if err != nil {
			return lost(err)
		}
		verb, a := ParseRequest(line)
		more, fatal := false, error(nil)
		if verb == "quit" {
			w.WriteString("ok\n")
		} else {
			more, fatal = handle(verb, a)
		}
		if err := w.Flush(); err != nil && fatal == nil {
			fatal = lost(err)
		}
		if fatal != nil || !more {
			return fatal
		}
	}
}

// The text-mode authentication of the remote I/O and ops-plane
// channels: the server sends a random nonce, the client answers with
// HMAC-SHA256(key, nonce), and the key itself never crosses the wire.
//
//	server: challenge <hex nonce>
//	client: auth <hex mac>
//	server: ok | error <code> <scope> <message>

func authenticator(key, nonce []byte) []byte {
	m := hmac.New(sha256.New, key)
	m.Write(nonce)
	return m.Sum(nil)
}

func verified(fields []string, want []byte) bool {
	if len(fields) != 2 || fields[0] != "auth" {
		return false
	}
	got, err := hex.DecodeString(fields[1])
	return err == nil && hmac.Equal(got, want)
}

// Challenge runs the server half over r and w and reports whether the
// peer proved possession of key.  A peer that did not has already been
// sent refusal, the protocol's own authentication error; the caller
// just hangs up.
func Challenge(r *bufio.Reader, w *bufio.Writer, key []byte, refusal *scope.Error) bool {
	nonce := make([]byte, 16)
	if _, err := rand.Read(nonce); err != nil {
		return false
	}
	fmt.Fprintf(w, "challenge %s\n", hex.EncodeToString(nonce))
	if w.Flush() != nil {
		return false
	}
	line, err := r.ReadString('\n')
	if err != nil {
		return false
	}
	if !verified(strings.Fields(line), authenticator(key, nonce)) {
		fmt.Fprint(w, wire.EncodeError(refusal, refusal.Code, refusal.Scope))
		w.Flush()
		return false
	}
	fmt.Fprint(w, "ok\n")
	return w.Flush() == nil
}

// AnswerChallenge runs the client half; it is the textAuth of the
// protocols that authenticate this way.  A silent or garbled server is
// a transport failure like any other; a refusal is the server's own
// scoped error.
func (c *Client) AnswerChallenge(key []byte) error {
	var nonce []byte
	err := c.exchange(func() error {
		line, err := c.r.ReadString('\n')
		if err != nil {
			return c.fail(err)
		}
		fields := strings.Fields(line)
		if len(fields) != 2 || fields[0] != "challenge" {
			return c.fail(fmt.Errorf("bad challenge %q", line))
		}
		if nonce, err = hex.DecodeString(fields[1]); err != nil {
			return c.fail(err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	_, err = c.Call(fmt.Sprintf("auth %s\n", hex.EncodeToString(authenticator(key, nonce))))
	return err
}
