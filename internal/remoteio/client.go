package remoteio

import (
	"net"
	"time"

	"github.com/errscope/grid/internal/rpc"
	"github.com/errscope/grid/internal/vfs"
	"github.com/errscope/grid/internal/wire"
)

// Client speaks the shadow remote I/O protocol over the shared
// rpc.Client connection (deadlines, the sticky transport failure, the
// Trace and TraceJob fields).  Transport failures surface as escaping
// errors of network scope; the caller (the starter's proxy) widens them
// to local-resource scope, because a shadow that cannot be reached
// means the submit side is unavailable.
type Client struct{ *rpc.Client }

// DialOptions parameterize a client connection.  The mode must match
// the server's: unlike Chirp, the text server speaks first (the
// challenge), so the transport cannot be sniffed from the client's
// opening bytes.
type DialOptions = rpc.DialOptions

var proto = rpc.Proto{
	Comp:           "remoteio-client",
	Counter:        "remoteio.transport_failures",
	ConnectionLost: CodeConnectionLost,
	RequestTimeout: CodeRequestTimeout,
	BadRequest:     CodeBadRequest,
}

// Dial connects and authenticates with the shared key.
func Dial(addr string, key []byte) (*Client, error) {
	return DialOpts(addr, key, DialOptions{})
}

// DialTimeout is Dial with a connection timeout.
func DialTimeout(addr string, key []byte, timeout time.Duration) (*Client, error) {
	return DialOpts(addr, key, DialOptions{Timeout: timeout})
}

// DialMode is Dial with a transport mode.
func DialMode(addr string, key []byte, mode wire.Mode) (*Client, error) {
	return DialOpts(addr, key, DialOptions{Mode: mode})
}

func wrap(c *rpc.Client, err error) (*Client, error) {
	if err != nil {
		return nil, err
	}
	return &Client{c}, nil
}

// answer is the text-mode authentication: the HMAC challenge.
func answer(key []byte) func(*rpc.Client) error {
	return func(c *rpc.Client) error { return c.AnswerChallenge(key) }
}

// DialOpts connects with full options.
func DialOpts(addr string, key []byte, o DialOptions) (*Client, error) {
	return wrap(rpc.Dial(&proto, addr, o, key, answer(key)))
}

// NewClient authenticates over an established connection (used by
// benchmarks and tests that construct their own sockets).
func NewClient(conn net.Conn, key []byte, o DialOptions) (*Client, error) {
	return wrap(rpc.NewClient(&proto, conn, o, key, answer(key)))
}

// Close ends the session politely and closes the connection.
func (c *Client) Close() error { return c.Quit(rioQuit) }

// call runs one operation through its row.
func (c *Client) call(verb string, q *rpc.Req) error { return c.Invoke(&ops.Verb(verb).Spec, q) }

// Read reads up to length bytes of path at offset into a fresh slice;
// it is AppendAt(nil, ...).
func (c *Client) Read(path string, offset int64, length int) ([]byte, error) {
	return c.AppendAt(nil, path, offset, length)
}

// AppendAt appends up to length bytes of path at offset to dst and
// returns the extended slice, or dst unchanged on error.  The client
// serializes its calls, so several callers may share it as long as
// each brings its own dst.
func (c *Client) AppendAt(dst []byte, path string, offset int64, length int) ([]byte, error) {
	q := rpc.Req{Str: [3]string{path}, Int: [3]int64{1: offset, 2: int64(length)}, Out: dst}
	err := c.call("read", &q)
	return q.Out, err
}

// Write writes data to path at offset.
func (c *Client) Write(path string, offset int64, data []byte) (int, error) {
	q := rpc.Req{Str: [3]string{path}, Int: [3]int64{1: offset}, Data: data}
	err := c.call("write", &q)
	return int(q.N), err
}

// Create makes an empty file.
func (c *Client) Create(path string) error { return c.call("create", &rpc.Req{Str: [3]string{path}}) }

// Truncate empties a file.
func (c *Client) Truncate(path string) error { return c.call("trunc", &rpc.Req{Str: [3]string{path}}) }

// Unlink removes a file.
func (c *Client) Unlink(path string) error { return c.call("unlink", &rpc.Req{Str: [3]string{path}}) }

// Rename moves a file.
func (c *Client) Rename(oldPath, newPath string) error {
	return c.call("rename", &rpc.Req{Str: [3]string{oldPath, newPath}})
}

// List enumerates files under a prefix.
func (c *Client) List(prefix string) ([]vfs.Info, error) {
	q := rpc.Req{Str: [3]string{prefix}}
	err := c.call("list", &q)
	return q.List, err
}

// Stat describes a file.
func (c *Client) Stat(path string) (vfs.Info, error) {
	q := rpc.Req{Str: [3]string{path}}
	err := c.call("stat", &q)
	return q.Info, err
}
