// Package remoteio implements the standard Condor remote I/O channel
// between the starter's proxy and the shadow (Figure 2 of the paper):
// UNIX-like file access in the form of remote procedure calls over
// TCP.
//
// The paper secures this channel with GSI or Kerberos; those stacks
// are out of scope here, so the substitution (documented in DESIGN.md)
// is an HMAC-SHA256 challenge/response over a shared key, which
// reproduces the error behaviour that matters to the theory: failed
// authentication and expired credentials are errors of local-resource
// scope (the submit side's security state is unavailable), while a
// lost channel escapes with network scope.
//
// Unlike Chirp, the RPC interface is stateless: every call names the
// path and offset explicitly, so a shadow restart invalidates no
// client state.
package remoteio

import (
	"bufio"
	"io"
	"net"
	"slices"
	"strconv"
	"sync"

	"github.com/errscope/grid/internal/rpc"
	"github.com/errscope/grid/internal/scope"
	"github.com/errscope/grid/internal/vfs"
	"github.com/errscope/grid/internal/wire"
)

// Error codes of the remote I/O interface (Principle 4).  File-level
// codes are shared with package vfs; these are the channel's own.
const (
	CodeAuthFailed         = "AuthenticationFailed"
	CodeCredentialsExpired = "CredentialsExpiredError"
	CodeBadRequest         = "BadRequest"
	CodeShadowError        = "ShadowError"
	CodeConnectionLost     = "ConnectionLost"
	// CodeRequestTimeout marks a request whose I/O deadline expired;
	// like a lost connection it escapes with network scope.
	CodeRequestTimeout = "RequestTimeout"
)

// Binary RPC command bytes (wire.ModeBinary / wire.ModeSecure), all
// >= 0x80.  Responses use the shared wire.CmdOK / wire.CmdErr frames.
const (
	rioRead   byte = 0xB0 // off i64, len u32, path rest -> data
	rioWrite  byte = 0xB1 // off i64, path str, data rest -> n u32
	rioCreate byte = 0xB2 // path rest
	rioTrunc  byte = 0xB3 // path rest
	rioUnlink byte = 0xB4 // path rest
	rioStat   byte = 0xB5 // path rest -> size i64, ro u8, path rest
	rioList   byte = 0xB6 // prefix rest -> count u32, then per entry
	//                       size i64, ro u8, path str
	rioRename byte = 0xB7 // old str, new rest
	rioQuit   byte = 0xBF
)

// maxDataLen bounds one RPC payload.
const maxDataLen = rpc.MaxData

// Contract returns the explicit error interface of the channel.
func Contract() *scope.Contract {
	return scope.NewContract("remoteio", scope.ScopeNetwork, CodeConnectionLost).
		Declare(vfs.CodeFileNotFound, scope.ScopeFile).
		Declare(vfs.CodeAccessDenied, scope.ScopeFile).
		Declare(vfs.CodeDiskFull, scope.ScopeFile).
		Declare(vfs.CodeEndOfFile, scope.ScopeFile).
		Declare(vfs.CodeFileExists, scope.ScopeFile).
		Declare(vfs.CodeBadArgument, scope.ScopeFunction).
		Declare(CodeBadRequest, scope.ScopeFunction).
		Declare(vfs.CodeOffline, scope.ScopeLocalResource).
		Declare(CodeAuthFailed, scope.ScopeLocalResource).
		Declare(CodeCredentialsExpired, scope.ScopeLocalResource).
		Declare(CodeShadowError, scope.ScopeLocalResource)
}

// Server is the shadow's file service: it exposes the submit
// machine's file system (a vfs.FileSystem) over authenticated RPC.
type Server struct {
	*rpc.Acceptor // Listen and Close

	fs  *vfs.FileSystem
	key []byte

	// Mode selects the transport for every connection; set it before
	// Listen.  The text server speaks first (the challenge), so the
	// protocol cannot be sniffed per connection as Chirp does.
	Mode wire.Mode

	mu          sync.Mutex
	expired     bool
	expiredKeys bool
}

// NewServer creates a shadow file service over fs, authenticated by
// the shared key.
func NewServer(fs *vfs.FileSystem, key []byte) *Server {
	s := &Server{fs: fs, key: append([]byte(nil), key...)}
	s.Acceptor = rpc.NewAcceptor("remoteio", s.serve)
	return s
}

func (s *Server) setFlag(flag *bool, v bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	*flag = v
}

// ExpireCredentials simulates security-credential expiry: every
// subsequent RPC fails with CredentialsExpiredError at local-resource
// scope until RenewCredentials is called.
func (s *Server) ExpireCredentials() { s.setFlag(&s.expired, true) }

// RenewCredentials restores the channel's credentials.
func (s *Server) RenewCredentials() { s.setFlag(&s.expired, false) }

// ExpireSessionKeys simulates the secure session's key budget running
// out on the server side: every subsequent framed RPC fails with
// KeyExpired at local-resource scope until RenewSessionKeys.  It is
// deterministic — a flag, never wall time.
func (s *Server) ExpireSessionKeys() { s.setFlag(&s.expiredKeys, true) }

// RenewSessionKeys restores the session keys.
func (s *Server) RenewSessionKeys() { s.setFlag(&s.expiredKeys, false) }

// expiry is the gate before any RPC work: with the channel's security
// state unavailable — a local-resource condition — the RPC is refused
// regardless of what it would have done.  Session keys exist only in
// the framed modes.
func (s *Server) expiry(framed bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if framed && s.expiredKeys {
		return scope.New(scope.ScopeLocalResource, wire.CodeKeyExpired,
			"session key expired: sealed-frame budget exhausted, rekey required")
	}
	if s.expired {
		return scope.New(scope.ScopeLocalResource, CodeCredentialsExpired,
			"the channel's security credentials have expired")
	}
	return nil
}

func badRequest(format string, args ...any) *scope.Error {
	return scope.New(scope.ScopeFunction, CodeBadRequest, format, args...)
}

func authFailed() *scope.Error {
	return scope.New(scope.ScopeLocalResource, CodeAuthFailed, "bad authenticator")
}

func (s *Server) serve(conn net.Conn) {
	if s.Mode != wire.ModeText {
		s.serveBinary(conn)
		return
	}
	r := bufio.NewReaderSize(conn, wire.BufSize)
	w := bufio.NewWriterSize(conn, wire.BufSize)
	if !rpc.Challenge(r, w, s.key, authFailed()) {
		return
	}
	var buf []byte // the connection's scratch, reset with wire.Keep
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return
		}
		reply, more := s.handle(line, r, &buf)
		reply.WriteTo(w, CodeShadowError, scope.ScopeLocalResource)
		buf = wire.Keep(buf)
		if w.Flush() != nil || !more {
			return
		}
	}
}

// handle runs one text RPC and reports whether the session continues
// after its reply.  A read's reply data and a write's payload are built
// in *buf, the connection's scratch.
func (s *Server) handle(line string, r *bufio.Reader, buf *[]byte) (reply rpc.Reply, more bool) {
	verb, a := rpc.ParseRequest(line)
	switch verb {
	case "":
		return rpc.Reply{Err: badRequest("empty request")}, true
	case "quit":
		return rpc.Reply{}, false
	}
	// A write's payload must be drained even when the RPC is refused,
	// or the stream loses framing; its path and offset are decoded only
	// afterwards.
	var pathArg, offArg string
	var payload []byte
	if verb == "write" {
		var n int
		pathArg, offArg, n = a.Next("path"), a.Next("offset"), a.Int("length")
		if err := a.Done(); err != nil || n < 0 || n > maxDataLen {
			// Framing unknown: refuse and drop the connection.
			return rpc.Reply{Err: badRequest("write: bad length")}, false
		}
		*buf = slices.Grow((*buf)[:0], n)[:n]
		payload = *buf
		if _, err := io.ReadFull(r, payload); err != nil {
			return rpc.Reply{Err: err}, false
		}
	}
	if err := s.expiry(false); err != nil {
		return rpc.Reply{Err: err}, true
	}

	// Each verb decodes its arguments and runs only if all of them did;
	// otherwise it falls out to the refusal at the bottom.
	switch verb {
	case "read":
		path, off, length := a.Path(), a.Int64("offset"), a.Int("length")
		if a.Done() == nil && length >= 0 && length <= maxDataLen {
			data, err := s.fs.AppendAt((*buf)[:0], path, off, length)
			*buf = data
			return rpc.Reply{Value: strconv.Itoa(len(data)), Data: data, Err: err}, true
		}
		return rpc.Reply{Err: badRequest("bad read arguments")}, true
	case "write":
		path, err1 := wire.Unquote(pathArg)
		off, err2 := strconv.ParseInt(offArg, 10, 64)
		if err1 != nil || err2 != nil {
			return rpc.Reply{Err: badRequest("bad write arguments")}, true
		}
		n, err := s.fs.WriteAt(path, off, payload)
		return rpc.Reply{Value: strconv.Itoa(n), Err: err}, true
	case "create":
		if path := a.Path(); a.Done() == nil {
			return rpc.Reply{Err: s.fs.Create(path)}, true
		}
	case "trunc":
		if path := a.Path(); a.Done() == nil {
			return rpc.Reply{Err: s.fs.WriteFile(path, nil)}, true
		}
	case "unlink":
		if path := a.Path(); a.Done() == nil {
			return rpc.Reply{Err: s.fs.Unlink(path)}, true
		}
	case "rename":
		if oldPath, newPath := a.Path(), a.Path(); a.Done() == nil {
			return rpc.Reply{Err: s.fs.Rename(oldPath, newPath)}, true
		}
	case "stat":
		if path := a.Path(); a.Done() == nil {
			info, err := s.fs.Stat(path)
			return rpc.Reply{Value: rpc.InfoLine(info), Err: err}, true
		}
	case "list":
		if prefix := a.Path(); a.Done() == nil {
			return rpc.ListReply(s.fs.List(prefix)), true
		}
	default:
		return rpc.Reply{Err: badRequest("unknown verb %q", verb)}, true
	}
	return rpc.Reply{Err: badRequest("%s: %v", verb, a.Done())}, true
}
