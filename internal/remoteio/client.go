package remoteio

import (
	"fmt"
	"net"
	"strconv"
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
	if c.Binary() {
		arg := wire.AppendU32(wire.AppendI64(nil, offset), uint32(length))
		return c.CallBin(dst, rioRead, arg, []byte(path))
	}
	return c.CallData(dst, fmt.Sprintf("read %s %d %d\n", wire.Quote(path), offset, length))
}

// Write writes data to path at offset.
func (c *Client) Write(path string, offset int64, data []byte) (int, error) {
	if c.Binary() {
		arg := wire.AppendStr(wire.AppendI64(nil, offset), path)
		pl, err := c.CallBin(nil, rioWrite, arg, data)
		if err != nil {
			return 0, err
		}
		cur := wire.NewCursor(pl)
		n := cur.U32()
		if !cur.Done() {
			return 0, c.Fail(fmt.Errorf("bad write response (%d bytes)", len(pl)))
		}
		return int(n), nil
	}
	v, err := c.Call(fmt.Sprintf("write %s %d %d\n", wire.Quote(path), offset, len(data)), data)
	if err != nil {
		return 0, err
	}
	n, convErr := strconv.Atoi(v)
	if convErr != nil {
		return 0, c.Fail(fmt.Errorf("bad write response %q", v))
	}
	return n, nil
}

// pathOp runs one path-only RPC in either transport.
func (c *Client) pathOp(cmd byte, verb, path string) error {
	if c.Binary() {
		_, err := c.CallBin(nil, cmd, []byte(path))
		return err
	}
	_, err := c.Call(fmt.Sprintf("%s %s\n", verb, wire.Quote(path)))
	return err
}

// Create makes an empty file.
func (c *Client) Create(path string) error { return c.pathOp(rioCreate, "create", path) }

// Truncate empties a file.
func (c *Client) Truncate(path string) error { return c.pathOp(rioTrunc, "trunc", path) }

// Unlink removes a file.
func (c *Client) Unlink(path string) error { return c.pathOp(rioUnlink, "unlink", path) }

// Rename moves a file.
func (c *Client) Rename(oldPath, newPath string) error {
	if c.Binary() {
		_, err := c.CallBin(nil, rioRename, wire.AppendStr(nil, oldPath), []byte(newPath))
		return err
	}
	_, err := c.Call(fmt.Sprintf("rename %s %s\n", wire.Quote(oldPath), wire.Quote(newPath)))
	return err
}

// List enumerates files under a prefix.
func (c *Client) List(prefix string) ([]vfs.Info, error) {
	if c.Binary() {
		return c.CallListBin(rioList, prefix)
	}
	return c.CallList(fmt.Sprintf("list %s\n", wire.Quote(prefix)))
}

// Stat describes a file.
func (c *Client) Stat(path string) (vfs.Info, error) {
	if c.Binary() {
		return c.CallStatBin(rioStat, path)
	}
	return c.CallStat(fmt.Sprintf("stat %s\n", wire.Quote(path)))
}
