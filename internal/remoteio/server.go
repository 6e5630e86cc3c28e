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
	"net"
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

// rioQuit ends a framed session.  Every opcode is >= 0x80; replies use
// the shared wire.CmdOK / wire.CmdErr frames.
const rioQuit byte = 0xBF

// ops is the protocol, one row per operation: the opcode byte and the
// text verb, the reply, the handler, and the arguments in text order
// with each one's place in the frame.  Every request first passes the
// credential gate.
var ops = rpc.Table[*Server]{BadRequest: CodeBadRequest, Fallback: CodeShadowError, Gate: (*Server).expiry, Ops: []rpc.Op[*Server]{
	rpc.Row(0xB0, "read", rpc.Bytes, (*Server).read, rpc.At(rpc.Path, 2), rpc.At(rpc.Offset, 0), rpc.At(rpc.Length, 1)),
	rpc.Row(0xB1, "write", rpc.U32, (*Server).write, rpc.At(rpc.Path, 1), rpc.At(rpc.Offset, 0), rpc.At(rpc.Data, 2)),
	rpc.Row(0xB2, "create", rpc.None, (*Server).create, rpc.At(rpc.Path, 0)),
	rpc.Row(0xB3, "trunc", rpc.None, (*Server).trunc, rpc.At(rpc.Path, 0)),
	rpc.Row(0xB4, "unlink", rpc.None, (*Server).unlink, rpc.At(rpc.Path, 0)),
	rpc.Row(0xB5, "stat", rpc.Stat, (*Server).stat, rpc.At(rpc.Path, 0)),
	rpc.Row(0xB6, "list", rpc.List, (*Server).list, rpc.At(rpc.Path, 0)),
	rpc.Row(0xB7, "rename", rpc.None, (*Server).rename, rpc.At(rpc.Path, 0), rpc.At(rpc.Path, 1)),
}}

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

func authFailed() *scope.Error {
	return scope.New(scope.ScopeLocalResource, CodeAuthFailed, "bad authenticator")
}

// serve runs one connection; the shadow keeps no log of its faults.
func (s *Server) serve(conn net.Conn) {
	r := bufio.NewReaderSize(conn, wire.BufSize)
	var q rpc.Req // the connection's request; its Out is the connection's scratch
	if s.Mode != wire.ModeText {
		cfg := wire.Config{Secret: s.key, AuthFailure: authFailed}
		rpc.ServeFramed(r, conn, cfg, rioQuit, ops.Fallback, func(cmd byte, pl []byte) ([]byte, error) {
			return ops.Frame(s, &q, cmd, pl)
		})
		return
	}
	w := bufio.NewWriterSize(conn, wire.BufSize)
	if rpc.Challenge(r, w, s.key, authFailed()) {
		rpc.ServeText(r, w, func(verb string, a *rpc.Args) (bool, error) {
			return true, ops.Text(s, &q, verb, a, r, w)
		})
	}
}

func (s *Server) read(q *rpc.Req) (err error) {
	q.Out, err = s.fs.AppendAt(q.Out, q.Str[0], q.Int[1], int(q.Int[2]))
	return err
}

func (s *Server) write(q *rpc.Req) error {
	n, err := s.fs.WriteAt(q.Str[0], q.Int[1], q.Data)
	q.N = int64(n)
	return err
}

func (s *Server) create(q *rpc.Req) error { return s.fs.Create(q.Str[0]) }
func (s *Server) trunc(q *rpc.Req) error  { return s.fs.WriteFile(q.Str[0], nil) }
func (s *Server) unlink(q *rpc.Req) error { return s.fs.Unlink(q.Str[0]) }
func (s *Server) rename(q *rpc.Req) error { return s.fs.Rename(q.Str[0], q.Str[1]) }

func (s *Server) stat(q *rpc.Req) (err error) {
	q.Info, err = s.fs.Stat(q.Str[0])
	return err
}

func (s *Server) list(q *rpc.Req) (err error) {
	q.List, err = s.fs.List(q.Str[0])
	return err
}
