// Package rpc is the one live transport under the repository's three
// socket protocols (chirp, remoteio, monitor).  The protocols differ in
// their verbs and in what their errors are called; they agree — because
// Section 7 of the paper makes the agreement the whole point — on what
// a dead or silent socket means: a deadline that expires is a
// RequestTimeout, any other transport death is a ConnectionLost, both
// escape at network scope, the first one is reported once and every
// later call gets the same error back.  That agreement lives here, once:
// the client connection (dial, deadlines, the sticky failure, the text
// and framed round trips), the server accept loop, and the text-mode
// HMAC challenge.
//
// The package reads the wall clock (deadlines, the failure event's
// stamp), which is why it sits outside internal/wire and
// internal/monitor: `make determinism-grep` keeps those two free of
// time.Now.
package rpc

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/errscope/grid/internal/obs"
	"github.com/errscope/grid/internal/scope"
	"github.com/errscope/grid/internal/wire"
)

// MaxData bounds one read or write payload of the file protocols.
const MaxData = 16 << 20

// Proto is what a protocol calls the things the transport reports: the
// obs component and counter of its transport-failure event, and its own
// codes for the three conditions the transport itself can raise.
type Proto struct {
	Comp    string // e.g. "chirp-client"
	Counter string // e.g. "chirp.transport_failures"

	ConnectionLost string
	RequestTimeout string
	BadRequest     string
}

// DialOptions parameterize a client connection.
type DialOptions struct {
	// Timeout bounds the TCP connect; 0 means 10s.
	Timeout time.Duration
	// IOTimeout bounds each request round trip (write + read).  0
	// means 10s; negative disables deadlines.  An expired deadline
	// surfaces as an escaping network-scope RequestTimeout error.
	IOTimeout time.Duration
	// Mode selects the transport: ModeText (default, the legacy line
	// protocol), ModeBinary (framed, checksummed), or ModeSecure
	// (framed and encrypted; the secret is never transmitted).  Only
	// the chirp server sniffs the mode per connection; the others must
	// be dialled in the mode they serve.
	Mode wire.Mode
	// RekeyAfter bounds the sealed frames per direction in ModeSecure;
	// 0 means no budget.
	RekeyAfter uint64
}

func orTenSeconds(d time.Duration) time.Duration {
	if d == 0 {
		return 10 * time.Second
	}
	return d
}

// Client is one authenticated client connection.  All methods return
// scoped errors: explicit protocol errors carry the code and scope the
// server sent; transport failures become escaping errors of network
// scope, because a broken connection is inexpressible in any of the
// protocols' own interfaces (Principle 2).
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
	dead error // sticky escaping error once the transport fails

	proto     *Proto
	mode      wire.Mode
	sess      *wire.Session // nil in text mode
	ioTimeout time.Duration // 0: no deadlines

	// Trace, when non-nil and enabled, receives an error event the
	// first time the transport fails; TraceJob tags it.  Set both
	// before issuing requests.
	Trace    obs.Tracer
	TraceJob int64
}

// Dial connects to addr and authenticates as NewClient does.
func Dial(p *Proto, addr string, o DialOptions, secret []byte, textAuth func(*Client) error) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, orTenSeconds(o.Timeout))
	if err != nil {
		return nil, scope.Escape(scope.ScopeNetwork, p.ConnectionLost, err)
	}
	c, err := NewClient(p, conn, o, secret, textAuth)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// NewClient authenticates over an established connection.  The framed
// modes run the wire.Session handshake with secret; text mode runs
// textAuth, the protocol's own opening exchange.  On error the caller
// still owns conn.
func NewClient(p *Proto, conn net.Conn, o DialOptions, secret []byte, textAuth func(*Client) error) (*Client, error) {
	// Both buffers hold a whole bulk message, so one syscall carries
	// it each way; framed requests bypass the writer.
	c := &Client{
		conn:      conn,
		r:         bufio.NewReaderSize(conn, wire.BufSize),
		proto:     p,
		mode:      o.Mode,
		ioTimeout: max(orTenSeconds(o.IOTimeout), 0),
	}
	if o.Mode == wire.ModeText {
		c.w = bufio.NewWriterSize(conn, wire.BufSize)
		if err := textAuth(c); err != nil {
			return nil, err
		}
		return c, nil
	}
	c.sess = wire.NewSession(c.r, conn, wire.Config{
		Mode:       o.Mode,
		Secret:     secret,
		RekeyAfter: o.RekeyAfter,
	})
	c.arm()
	err := c.sess.ClientHandshake()
	c.disarm()
	if err != nil {
		c.sess.Release()
		if se, ok := scope.AsError(err); ok && se.Scope != scope.ScopeNetwork {
			// The server's explicit refusal (a bad secret), not
			// transport trouble: pass it through untouched.
			return nil, se
		}
		return nil, scope.Escape(scope.ScopeNetwork, "", err)
	}
	return c, nil
}

// Binary reports whether the client speaks frames.
func (c *Client) Binary() bool { return c.mode != wire.ModeText }

// Close releases the session and closes the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.close()
}

// Quit ends the session politely — the text "quit" line, or the given
// frame command — and closes the connection.  The farewell is best
// effort and its reply is not awaited.
func (c *Client) Quit(cmd byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	if c.sess != nil {
		_ = c.sess.WriteMsg(cmd)
	} else {
		io.WriteString(c.w, "quit\n")
		c.w.Flush()
	}
	return c.close()
}

func (c *Client) close() error {
	if c.conn == nil {
		return nil
	}
	if c.sess != nil {
		c.sess.Release()
		c.sess = nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// arm sets the per-request I/O deadline; disarm clears it.  Without a
// deadline a hung peer stalls the round trip — and whatever waits
// behind it — forever.
func (c *Client) arm() {
	if c.ioTimeout > 0 && c.conn != nil {
		c.conn.SetDeadline(time.Now().Add(c.ioTimeout))
	}
}

func (c *Client) disarm() {
	if c.ioTimeout > 0 && c.conn != nil {
		c.conn.SetDeadline(time.Time{})
	}
}

// usable reports why the connection cannot carry another exchange:
// the sticky error if the transport died, a function-scope refusal if
// the caller closed the client.  The lock is held.
func (c *Client) usable() error {
	if c.dead != nil {
		return c.dead
	}
	if c.conn == nil {
		return scope.New(scope.ScopeFunction, c.proto.BadRequest, "client closed")
	}
	return nil
}

// begin opens one exchange: on a usable connection the deadline is
// armed and the caller defers disarm.  The lock is held.
func (c *Client) begin() error {
	err := c.usable()
	if err == nil {
		c.arm()
	}
	return err
}

// fail records and returns the sticky transport error.  A scoped cause
// (a frame-layer fault: checksum, MAC, replay, key expiry) keeps its
// code and escapes; a deadline expiry becomes RequestTimeout; any
// other cause is a lost connection.  The lock is held.
func (c *Client) fail(err error) error {
	code := c.proto.ConnectionLost
	var ne net.Error
	if _, ok := scope.AsError(err); ok {
		code = "" // Escape adopts the cause's code and widens its scope
	} else if errors.As(err, &ne) && ne.Timeout() {
		code = c.proto.RequestTimeout
	}
	esc := scope.Escape(scope.ScopeNetwork, code, err)
	first := c.dead == nil
	c.dead = esc
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
	if first && c.Trace != nil && c.Trace.Enabled() {
		// One origin event per connection death; later calls return
		// the sticky error without re-reporting.
		c.Trace.Emit(obs.Event{
			T:      time.Now().UnixNano(),
			Comp:   c.proto.Comp,
			Kind:   obs.KindError,
			Job:    c.TraceJob,
			Code:   esc.Code,
			Scope:  esc.Scope.String(),
			EKind:  esc.Kind.String(),
			Detail: esc.Error(),
		})
		c.Trace.Count(c.proto.Counter, 1)
	}
	return esc
}

// Fail kills the connection over a reply the protocol could not
// decode, and returns the sticky error.
func (c *Client) Fail(err error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fail(err)
}

// textCall sends one request line (plus payload) and reads the reply
// line, returning what follows "ok".  An "error" line is the server's
// explicit scoped error; anything else kills the connection.  The lock
// is held and the deadline armed.
func (c *Client) textCall(request string, payload [][]byte) (string, error) {
	if _, err := io.WriteString(c.w, request); err != nil {
		return "", c.fail(err)
	}
	for _, p := range payload {
		if _, err := c.w.Write(p); err != nil {
			return "", c.fail(err)
		}
	}
	if err := c.w.Flush(); err != nil {
		return "", c.fail(err)
	}
	line, err := c.r.ReadString('\n')
	if err != nil {
		return "", c.fail(err)
	}
	line = strings.TrimRight(line, "\r\n")
	verb, rest, _ := strings.Cut(line, " ")
	switch verb {
	case "ok":
		return rest, nil
	case "error":
		// Decode from the raw remainder: the quoted message may
		// contain consecutive spaces that field-splitting would eat.
		se, decErr := wire.DecodeError(rest)
		if decErr != nil {
			return "", c.fail(decErr)
		}
		return "", se
	}
	return "", c.fail(fmt.Errorf("bad response %q", line))
}

// Call is one text round trip; it returns the reply value.
func (c *Client) Call(request string, payload ...[]byte) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.begin(); err != nil {
		return "", err
	}
	defer c.disarm()
	return c.textCall(request, payload)
}

// CallData is one text round trip whose reply value opens with a byte
// count; that many bytes follow the line and are appended to dst.  It
// returns the extended slice, or dst unchanged on error.
func (c *Client) CallData(dst []byte, request string) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.begin(); err != nil {
		return dst, err
	}
	defer c.disarm()
	value, err := c.textCall(request, nil)
	if err != nil {
		return dst, err
	}
	lenField, _, _ := strings.Cut(value, " ")
	n, convErr := strconv.Atoi(lenField)
	if convErr != nil || n < 0 || n > MaxData {
		return dst, c.fail(fmt.Errorf("bad data length %q", value))
	}
	data := slices.Grow(dst, n)[:len(dst)+n]
	if _, err := io.ReadFull(c.r, data[len(dst):]); err != nil {
		return dst, c.fail(err)
	}
	return data, nil
}

// CallBin is one framed round trip.  A success reply's payload is
// appended to dst, out of the session buffer it arrived in; CallBin
// returns the extended slice, or dst unchanged on error.
func (c *Client) CallBin(dst []byte, cmd byte, parts ...[]byte) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.begin(); err != nil {
		return dst, err
	}
	defer c.disarm()
	if err := c.sess.WriteMsg(cmd, parts...); err != nil {
		return dst, c.fail(err)
	}
	rcmd, pl, err := c.sess.ReadMsg()
	if err != nil {
		return dst, c.fail(err)
	}
	switch rcmd {
	case wire.CmdOK:
		return append(dst, pl...), nil
	case wire.CmdErr:
		se, decErr := wire.DecodeErrorPayload(pl)
		if decErr != nil {
			return dst, c.fail(decErr)
		}
		return dst, se
	}
	return dst, c.fail(fmt.Errorf("bad response frame %#x", rcmd))
}

// Recv reads the next record of a one-way stream the server opened in
// reply to an earlier call: one frame, or in text mode one line under
// command 0.  No deadline is armed, because an idle stream is legal,
// and the error comes back raw (io.EOF on a clean close): the end of a
// stream is its reader's business, not a transport failure.
func (c *Client) Recv() (byte, string, error) {
	c.mu.Lock()
	sess, err := c.sess, c.usable()
	c.mu.Unlock()
	if err != nil {
		return 0, "", err
	}
	if sess != nil {
		cmd, pl, err := sess.ReadMsg()
		return cmd, string(pl), err
	}
	line, err := c.r.ReadString('\n')
	return 0, strings.TrimSpace(line), err
}
