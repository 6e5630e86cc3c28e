package monitor

import (
	"io"
	"strings"

	"github.com/errscope/grid/internal/rpc"
	"github.com/errscope/grid/internal/scope"
	"github.com/errscope/grid/internal/wire"
)

// Client is one ops-plane connection over the shared rpc.Client: a
// subscriber draining the stream, or an admin session issuing verbs.
// Which one it becomes is decided by the first call (Subscribe or
// Admin), mirroring the server's first-record dispatch.  Connecting,
// authenticating, Subscribe and Admin are deadline-bounded round trips
// like any other client's; only the subscriber stream itself (Next,
// Collect) waits without limit, because an idle stream is legal.
type Client struct{ *rpc.Client }

var proto = rpc.Proto{
	Comp:           "monitor-client",
	Counter:        "monitor.transport_failures",
	ConnectionLost: CodeConnectionLost,
	RequestTimeout: CodeRequestTimeout,
	BadRequest:     CodeBadRequest,
}

// Dial connects and authenticates in the given mode.
func Dial(addr string, mode wire.Mode, key []byte) (*Client, error) {
	return dial(addr, key, rpc.DialOptions{Mode: mode})
}

func dial(addr string, key []byte, o rpc.DialOptions) (*Client, error) {
	c, err := rpc.Dial(&proto, addr, o, key, func(c *rpc.Client) error { return c.AnswerChallenge(key) })
	if err != nil {
		return nil, err
	}
	return &Client{c}, nil
}

// call is one request/reply exchange in either envelope: the record
// travels as a frame under cmd or as a bare line, and the reply's
// record comes back without its "ok".
func (c *Client) call(cmd byte, rec string) (string, error) {
	if c.Binary() {
		pl, err := c.CallBin(cmd, []byte(rec))
		return string(pl), err
	}
	v, _, err := c.Call(rec+"\n", 0)
	return v, err
}

// Subscribe turns this connection into a subscriber session streaming
// from event index `from`.
func (c *Client) Subscribe(from int64) error {
	_, err := c.call(cmdSub, EncodeSub(from))
	return err
}

// Admin issues one verb on this connection and returns the server's
// detail line.  A failed verb comes back as the scoped error the pool
// raised, reconstructed across the wire.
func (c *Client) Admin(verb, target string) (string, error) {
	rec, err := c.call(cmdAdmin, EncodeAdmin(verb, target))
	if err != nil {
		return "", err
	}
	_, _, detail, err := ParseAdminOK(rec)
	return detail, err
}

// Next reads one streamed record.  A clean server close is io.EOF.
func (c *Client) Next() (byte, string, error) {
	cmd, rec, err := c.Recv()
	if err != nil {
		return 0, "", err
	}
	switch {
	case cmd == wire.CmdErr:
		// A refused subscription arrives in-stream as an error reply.
		if se, derr := wire.DecodeErrorPayload([]byte(rec)); derr == nil {
			return 0, "", se
		}
	case cmd != 0:
		return cmd, rec, nil
	case strings.HasPrefix(rec, "mev "):
		return cmdEvent, rec, nil
	case strings.HasPrefix(rec, "mmet "):
		return cmdMetrics, rec, nil
	case strings.HasPrefix(rec, "error "):
		if se, derr := wire.DecodeError(rec[len("error "):]); derr == nil {
			return 0, "", se
		}
	}
	return 0, "", scope.New(scope.ScopeNetwork, CodeBadRequest, "unexpected stream record %q", rec)
}

// Collect drains the stream into col until the server closes the
// connection (which reads as success: the subscription simply ended)
// or a record fails to decode.
func (c *Client) Collect(col *Collector) error {
	for {
		cmd, line, err := c.Next()
		if err != nil {
			if err == io.EOF || isConnClosed(err) {
				return nil
			}
			return err
		}
		if err := col.Deliver(cmd, line); err != nil {
			return err
		}
	}
}

// isConnClosed recognizes the errors a torn-down subscriber session
// surfaces as: the server closed the socket under the reader.
func isConnClosed(err error) bool {
	if se, ok := scope.AsError(err); ok && se.Code == CodeConnectionLost {
		return true
	}
	msg := err.Error()
	return strings.Contains(msg, "use of closed network connection") ||
		strings.Contains(msg, "connection reset by peer") ||
		strings.Contains(msg, "EOF")
}
