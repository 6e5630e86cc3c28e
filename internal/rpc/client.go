// Package rpc is the one live transport under the repository's three
// socket protocols (chirp, remoteio, monitor).  The protocols differ in
// their verbs and in what their errors are called; they agree — because
// Section 7 of the paper makes the agreement the whole point — on what
// a dead or silent socket means: a deadline that expires is a
// RequestTimeout, any other transport death is a ConnectionLost, both
// escape at network scope, the first one is reported once and every
// later call gets the same error back.  That agreement lives here, once:
// the client connection (dial, deadlines, the sticky failure, the text
// and framed round trips), the server accept loop and the serve loop of
// each encoding, the op tables the two file protocols are written as
// (op.go), and the text-mode HMAC challenge.
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
	"github.com/errscope/grid/internal/vfs"
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
	req       []byte        // the request being built; the lock is held

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

// exchange runs one round trip under the lock, with the deadline
// armed on a usable connection.
func (c *Client) exchange(roundTrip func() error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.usable(); err != nil {
		return err
	}
	c.arm()
	defer c.disarm()
	return roundTrip()
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

// textCall sends the request written to c.w and reads the reply line,
// returning what follows "ok".  An "error" line is the server's
// explicit scoped error; anything else kills the connection.  The lock
// is held and the deadline armed.
func (c *Client) textCall() (string, error) {
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
func (c *Client) Call(request string, payload ...[]byte) (v string, err error) {
	err = c.exchange(func() error {
		c.w.WriteString(request)
		for _, p := range payload {
			c.w.Write(p)
		}
		v, err = c.textCall()
		return err
	})
	return v, err
}

// binCall is one framed round trip; a success reply's payload aliases
// the session's buffer.  The lock is held and the deadline armed.
func (c *Client) binCall(cmd byte, parts ...[]byte) ([]byte, error) {
	if err := c.sess.WriteMsg(cmd, parts...); err != nil {
		return nil, c.fail(err)
	}
	rcmd, pl, err := c.sess.ReadMsg()
	if err != nil {
		return nil, c.fail(err)
	}
	switch rcmd {
	case wire.CmdOK:
		return pl, nil
	case wire.CmdErr:
		se, decErr := wire.DecodeErrorPayload(pl)
		if decErr != nil {
			return nil, c.fail(decErr)
		}
		return nil, se
	}
	return nil, c.fail(fmt.Errorf("bad response frame %#x", rcmd))
}

// CallBin is one framed round trip.  A success reply's payload is
// appended to dst, out of the session buffer it arrived in; CallBin
// returns the extended slice, or dst unchanged on error.
func (c *Client) CallBin(dst []byte, cmd byte, parts ...[]byte) ([]byte, error) {
	q := Req{Out: dst}
	err := c.exchange(func() error { return c.frameReply(&Spec{Code: cmd, Reply: Bytes}, &q, parts...) })
	return q.Out, err
}

// Invoke is one round trip of an operation in the client's mode: the
// arguments in q go out as its row encodes them, and the reply comes
// back where the row's Shape says; a data reply is appended to q.Out,
// which is left as it was on error.
func (c *Client) Invoke(sp *Spec, q *Req) error {
	return c.exchange(func() error {
		if c.sess != nil {
			c.req = sp.appendFrame(c.req[:0], q)
			return c.frameReply(sp, q, c.req, q.Data)
		}
		c.req = sp.appendText(c.req[:0], q)
		c.w.Write(c.req)
		c.w.Write(q.Data)
		return c.textReply(sp, q)
	})
}

// textReply sends the request written to c.w and decodes the reply.
// Anything that does not decode kills the connection.  The lock is
// held and the deadline armed.
func (c *Client) textReply(sp *Spec, q *Req) error {
	v, err := c.textCall()
	if err != nil {
		return err
	}
	switch sp.Reply {
	case U32, I64:
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return c.fail(fmt.Errorf("bad %s response %q", sp.Verb, v))
		}
		q.N = n
	case Bytes:
		lenField, _, _ := strings.Cut(v, " ")
		n, convErr := strconv.Atoi(lenField)
		if convErr != nil || n < 0 || n > MaxData {
			return c.fail(fmt.Errorf("bad data length %q", v))
		}
		data := slices.Grow(q.Out, n)[:len(q.Out)+n]
		if _, err := io.ReadFull(c.r, data[len(q.Out):]); err != nil {
			return c.fail(err)
		}
		q.Out = data
	case Stat:
		if q.Info, err = parseInfo(v); err != nil {
			return c.fail(err)
		}
	case List:
		n, convErr := strconv.Atoi(v)
		if convErr != nil || n < 0 || n > maxList {
			return c.fail(fmt.Errorf("bad list count %q", v))
		}
		list := make([]vfs.Info, n)
		for i := range list {
			entry, err := c.r.ReadString('\n')
			if err != nil {
				return c.fail(err)
			}
			if list[i], err = parseInfo(strings.TrimRight(entry, "\r\n")); err != nil {
				return c.fail(err)
			}
		}
		q.List = list
	}
	return nil
}

// frameReply sends a request frame and decodes the reply.  Anything
// that does not decode exactly kills the connection.  The lock is held
// and the deadline armed.
func (c *Client) frameReply(sp *Spec, q *Req, parts ...[]byte) error {
	pl, err := c.binCall(sp.Code, parts...)
	if err != nil {
		return err
	}
	cur := wire.NewCursor(pl)
	switch sp.Reply {
	case None:
		return nil
	case Bytes:
		q.Out = append(q.Out, pl...)
		return nil
	case U32:
		q.N = int64(cur.U32())
	case I64:
		q.N = cur.I64()
	case Stat:
		q.Info = readInfo(&cur, true)
	case List:
		n := int(cur.U32())
		if !cur.OK() || n > maxList {
			return c.fail(fmt.Errorf("bad list response (%d bytes)", len(pl)))
		}
		q.List = make([]vfs.Info, 0, n)
		for i := 0; i < n && cur.OK(); i++ {
			q.List = append(q.List, readInfo(&cur, false))
		}
	}
	if !cur.Done() {
		q.N, q.Info, q.List = 0, vfs.Info{}, nil
		return c.fail(fmt.Errorf("bad %s response (%d bytes)", sp.Verb, len(pl)))
	}
	return nil
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
