package chirp

import (
	"fmt"
	"net"
	"strings"
	"time"

	"github.com/errscope/grid/internal/rpc"
	"github.com/errscope/grid/internal/scope"
	"github.com/errscope/grid/internal/vfs"
	"github.com/errscope/grid/internal/wire"
)

// Client is the I/O-library side of the Chirp protocol: the shared
// rpc.Client connection (deadlines, the sticky transport failure, the
// Trace and TraceJob fields) under Chirp's operations.  All methods
// return scoped errors: explicit protocol errors carry the code and
// scope sent by the proxy; transport failures become escaping errors
// of network scope, because a broken connection is inexpressible in
// the file interface (Principle 2).
type Client struct{ *rpc.Client }

// DialOptions parameterize a client connection.  The proxy sniffs the
// mode from the client's opening byte, so any Mode may be dialled.
type DialOptions = rpc.DialOptions

var proto = rpc.Proto{
	Comp:           "chirp-client",
	Counter:        "chirp.transport_failures",
	ConnectionLost: CodeConnectionLost,
	RequestTimeout: CodeRequestTimeout,
	BadRequest:     CodeBadRequest,
}

// checkCookie rejects cookies that cannot travel safely: a newline or
// carriage return would terminate the text frame early, and a quote
// would splice into the quoted argument.  Quote would escape all
// three, but a secret that needs escaping is a secret that some other
// implementation will mis-frame, so they are rejected at the edge
// (function scope: the caller's argument is bad, nothing was sent).
func checkCookie(cookie string) error {
	if strings.ContainsAny(cookie, "\n\r\"") {
		return scope.New(scope.ScopeFunction, CodeBadRequest,
			"cookie contains newline or quote characters")
	}
	return nil
}

// Dial connects to a Chirp proxy and authenticates with the cookie.
func Dial(addr, cookie string) (*Client, error) {
	return DialOpts(addr, cookie, DialOptions{})
}

// DialTimeout is Dial with a connection timeout.
func DialTimeout(addr, cookie string, timeout time.Duration) (*Client, error) {
	return DialOpts(addr, cookie, DialOptions{Timeout: timeout})
}

// DialMode is Dial with a transport mode.
func DialMode(addr, cookie string, mode wire.Mode) (*Client, error) {
	return DialOpts(addr, cookie, DialOptions{Mode: mode})
}

// presentCookie is the text-mode authentication: the cookie travels as
// the first request.
func presentCookie(cookie string) func(*rpc.Client) error {
	return func(c *rpc.Client) error {
		_, err := c.Call(fmt.Sprintf("cookie %s\n", wire.Quote(cookie)))
		return err
	}
}

func wrap(c *rpc.Client, err error) (*Client, error) {
	if err != nil {
		return nil, err
	}
	return &Client{c}, nil
}

// DialOpts connects with full options.
func DialOpts(addr, cookie string, o DialOptions) (*Client, error) {
	if err := checkCookie(cookie); err != nil {
		return nil, err
	}
	return wrap(rpc.Dial(&proto, addr, o, []byte(cookie), presentCookie(cookie)))
}

// NewClient authenticates over an established connection (used by
// benchmarks and tests that construct their own sockets).
func NewClient(conn net.Conn, cookie string, o DialOptions) (*Client, error) {
	if err := checkCookie(cookie); err != nil {
		return nil, err
	}
	return wrap(rpc.NewClient(&proto, conn, o, []byte(cookie), presentCookie(cookie)))
}

// Close ends the session politely and closes the connection.
func (c *Client) Close() error { return c.Quit(binQuit) }

// call runs one operation through its row.
func (c *Client) call(verb string, q *rpc.Req) error { return c.Invoke(&ops.Verb(verb).Spec, q) }

// count runs an operation whose reply is a count or a position.
func (c *Client) count(verb string, q *rpc.Req) (int64, error) {
	err := c.call(verb, q)
	return q.N, err
}

// Open opens a remote file and returns its descriptor.
func (c *Client) Open(path string, flags OpenFlags) (int, error) {
	fd, err := c.count("open", &rpc.Req{Str: [3]string{path}, Int: [3]int64{1: int64(flags)}})
	if err != nil {
		return -1, err
	}
	return int(fd), nil
}

// CloseFD closes a remote descriptor.
func (c *Client) CloseFD(fd int) error { return c.call("close", &rpc.Req{Int: [3]int64{int64(fd)}}) }

// Read reads up to length bytes from the descriptor's current offset.
func (c *Client) Read(fd, length int) ([]byte, error) {
	q := rpc.Req{Int: [3]int64{int64(fd), int64(length)}}
	err := c.call("read", &q)
	return q.Out, err
}

// PRead reads up to length bytes at the given offset.
func (c *Client) PRead(fd, length int, offset int64) ([]byte, error) {
	q := rpc.Req{Int: [3]int64{int64(fd), int64(length), offset}}
	err := c.call("pread", &q)
	return q.Out, err
}

// Write writes data at the descriptor's current offset.
func (c *Client) Write(fd int, data []byte) (int, error) {
	n, err := c.count("write", &rpc.Req{Int: [3]int64{int64(fd)}, Data: data})
	return int(n), err
}

// PWrite writes data at the given offset.
func (c *Client) PWrite(fd int, data []byte, offset int64) (int, error) {
	n, err := c.count("pwrite", &rpc.Req{Int: [3]int64{int64(fd), 2: offset}, Data: data})
	return int(n), err
}

// Seek repositions the descriptor and returns the new offset.
func (c *Client) Seek(fd int, offset int64, whence int) (int64, error) {
	return c.count("lseek", &rpc.Req{Int: [3]int64{int64(fd), offset, int64(whence)}})
}

// Unlink removes a remote file.
func (c *Client) Unlink(path string) error { return c.call("unlink", &rpc.Req{Str: [3]string{path}}) }

// Rename moves a remote file.
func (c *Client) Rename(oldPath, newPath string) error {
	return c.call("rename", &rpc.Req{Str: [3]string{oldPath, newPath}})
}

// List enumerates remote files under a prefix.
func (c *Client) List(prefix string) ([]vfs.Info, error) {
	q := rpc.Req{Str: [3]string{prefix}}
	err := c.call("getdir", &q)
	return q.List, err
}

// Stat describes a remote file.
func (c *Client) Stat(path string) (vfs.Info, error) {
	q := rpc.Req{Str: [3]string{path}}
	err := c.call("stat", &q)
	return q.Info, err
}
