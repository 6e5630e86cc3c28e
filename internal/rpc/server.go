package rpc

import (
	"bufio"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
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
	nonce, err := c.readChallenge()
	if err != nil {
		return c.Fail(err)
	}
	_, err = c.Call(fmt.Sprintf("auth %s\n", hex.EncodeToString(authenticator(key, nonce))))
	return err
}

func (c *Client) readChallenge() ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.arm()
	defer c.disarm()
	line, err := c.r.ReadString('\n')
	if err != nil {
		return nil, err
	}
	fields := strings.Fields(line)
	if len(fields) != 2 || fields[0] != "challenge" {
		return nil, fmt.Errorf("bad challenge %q", line)
	}
	return hex.DecodeString(fields[1])
}
