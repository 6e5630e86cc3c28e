package chirp

import (
	"fmt"
	"net"
	"strconv"
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
		_, _, err := c.Call(fmt.Sprintf("cookie %s\n", wire.Quote(cookie)), 0)
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

// checkBin kills the connection over a framed response that did not
// decode exactly; checkText does the same for a text response value.
func (c *Client) checkBin(cur *wire.Cursor, what string, pl []byte) error {
	if cur.Done() {
		return nil
	}
	return c.Fail(fmt.Errorf("bad %s response (%d bytes)", what, len(pl)))
}

func (c *Client) checkText(convErr error, what, v string) error {
	if convErr == nil {
		return nil
	}
	return c.Fail(fmt.Errorf("bad %s response %q", what, v))
}

// Open opens a remote file and returns its descriptor.
func (c *Client) Open(path string, flags OpenFlags) (int, error) {
	if c.Binary() {
		pl, err := c.CallBin(binOpen, []byte{byte(flags)}, []byte(path))
		if err != nil {
			return -1, err
		}
		cur := wire.NewCursor(pl)
		fd := cur.U32()
		return int(fd), c.checkBin(&cur, "open", pl)
	}
	v, _, err := c.Call(fmt.Sprintf("open %s %s\n", wire.Quote(path), flags), 0)
	if err != nil {
		return -1, err
	}
	fd, convErr := strconv.Atoi(v)
	return fd, c.checkText(convErr, "open", v)
}

// CloseFD closes a remote descriptor.
func (c *Client) CloseFD(fd int) error {
	if c.Binary() {
		_, err := c.CallBin(binClose, wire.AppendU32(nil, uint32(fd)))
		return err
	}
	_, _, err := c.Call(fmt.Sprintf("close %d\n", fd), 0)
	return err
}

// Read reads up to length bytes from the descriptor's current offset.
func (c *Client) Read(fd, length int) ([]byte, error) {
	if c.Binary() {
		arg := wire.AppendU32(wire.AppendU32(nil, uint32(fd)), uint32(length))
		return c.CallBin(binRead, arg)
	}
	_, data, err := c.Call(fmt.Sprintf("read %d %d\n", fd, length), length)
	return data, err
}

// PRead reads up to length bytes at the given offset.
func (c *Client) PRead(fd, length int, offset int64) ([]byte, error) {
	if c.Binary() {
		arg := wire.AppendI64(wire.AppendU32(wire.AppendU32(nil, uint32(fd)), uint32(length)), offset)
		return c.CallBin(binPRead, arg)
	}
	_, data, err := c.Call(fmt.Sprintf("pread %d %d %d\n", fd, length, offset), length)
	return data, err
}

// Write writes data at the descriptor's current offset.
func (c *Client) Write(fd int, data []byte) (int, error) {
	if c.Binary() {
		pl, err := c.CallBin(binWrite, wire.AppendU32(nil, uint32(fd)), data)
		if err != nil {
			return 0, err
		}
		cur := wire.NewCursor(pl)
		n := cur.U32()
		return int(n), c.checkBin(&cur, "write", pl)
	}
	v, _, err := c.Call(fmt.Sprintf("write %d %d\n", fd, len(data)), 0, data)
	if err != nil {
		return 0, err
	}
	n, convErr := strconv.Atoi(v)
	return n, c.checkText(convErr, "write", v)
}

// PWrite writes data at the given offset.
func (c *Client) PWrite(fd int, data []byte, offset int64) (int, error) {
	if c.Binary() {
		arg := wire.AppendI64(wire.AppendU32(nil, uint32(fd)), offset)
		pl, err := c.CallBin(binPWrite, arg, data)
		if err != nil {
			return 0, err
		}
		cur := wire.NewCursor(pl)
		n := cur.U32()
		return int(n), c.checkBin(&cur, "pwrite", pl)
	}
	v, _, err := c.Call(fmt.Sprintf("pwrite %d %d %d\n", fd, len(data), offset), 0, data)
	if err != nil {
		return 0, err
	}
	n, convErr := strconv.Atoi(v)
	return n, c.checkText(convErr, "pwrite", v)
}

// Seek repositions the descriptor and returns the new offset.
func (c *Client) Seek(fd int, offset int64, whence int) (int64, error) {
	if c.Binary() {
		arg := wire.AppendI64(append(wire.AppendU32(nil, uint32(fd)), byte(whence)), offset)
		pl, err := c.CallBin(binSeek, arg)
		if err != nil {
			return 0, err
		}
		cur := wire.NewCursor(pl)
		pos := cur.I64()
		return pos, c.checkBin(&cur, "lseek", pl)
	}
	v, _, err := c.Call(fmt.Sprintf("lseek %d %d %d\n", fd, offset, whence), 0)
	if err != nil {
		return 0, err
	}
	pos, convErr := strconv.ParseInt(v, 10, 64)
	return pos, c.checkText(convErr, "lseek", v)
}

// Unlink removes a remote file.
func (c *Client) Unlink(path string) error {
	if c.Binary() {
		_, err := c.CallBin(binUnlink, []byte(path))
		return err
	}
	_, _, err := c.Call(fmt.Sprintf("unlink %s\n", wire.Quote(path)), 0)
	return err
}

// Rename moves a remote file.
func (c *Client) Rename(oldPath, newPath string) error {
	if c.Binary() {
		_, err := c.CallBin(binRename, wire.AppendStr(nil, oldPath), []byte(newPath))
		return err
	}
	_, _, err := c.Call(fmt.Sprintf("rename %s %s\n", wire.Quote(oldPath), wire.Quote(newPath)), 0)
	return err
}

// List enumerates remote files under a prefix.
func (c *Client) List(prefix string) ([]vfs.Info, error) {
	if c.Binary() {
		return c.CallListBin(binGetdir, prefix)
	}
	return c.CallList(fmt.Sprintf("getdir %s\n", wire.Quote(prefix)))
}

// Stat describes a remote file.
func (c *Client) Stat(path string) (vfs.Info, error) {
	if c.Binary() {
		return c.CallStatBin(binStat, path)
	}
	return c.CallStat(fmt.Sprintf("stat %s\n", wire.Quote(path)))
}
