package chirp

import (
	"bufio"
	"crypto/subtle"
	"net"

	"github.com/errscope/grid/internal/rpc"
	"github.com/errscope/grid/internal/scope"
	"github.com/errscope/grid/internal/wire"
)

// Server is the Chirp proxy: it listens on a loopback TCP port,
// authenticates clients by shared secret, and forwards file
// operations to a Backend.
type Server struct {
	*rpc.Acceptor // Listen and Close

	backend Backend
	secret  string

	// ErrorLog, if non-nil, receives per-connection protocol faults
	// the proxy consumed (the starter's view of escaping errors).
	ErrorLog func(err error)
}

// NewServer creates a Chirp proxy over backend requiring the given
// shared-secret cookie.
func NewServer(backend Backend, secret string) *Server {
	s := &Server{backend: backend, secret: secret}
	s.Acceptor = rpc.NewAcceptor("chirp", s.serve)
	return s
}

func (s *Server) logErr(err error) {
	if s.ErrorLog != nil {
		s.ErrorLog(err)
	}
}

func badRequest(format string, args ...any) *scope.Error {
	return scope.New(scope.ScopeFunction, CodeBadRequest, format, args...)
}

// session is the per-connection descriptor table.  Its methods are the
// handlers of the protocol's rows, and with them its descriptor rules —
// allocation and the append position on open, the implicit offset of
// read and write, seek arithmetic, close — stated once for both
// encodings.
type session struct {
	backend Backend
	files   map[int]File
	pos     map[int]int64
	nextFD  int

	// req is the connection's request, never shared with another
	// connection even when their backends share one link; its Out is
	// the connection's scratch, which replies and text-mode write
	// payloads are built in.
	req rpc.Req
}

func (s *Server) newSession() *session {
	return &session{backend: s.backend, files: make(map[int]File), pos: make(map[int]int64), nextFD: 3}
}

// closeAll releases every descriptor the connection left open.
func (st *session) closeAll() {
	for _, f := range st.files {
		f.Close()
	}
}

func (st *session) file(fd int) (File, error) {
	f, ok := st.files[fd]
	if !ok {
		return nil, scope.New(scope.ScopeFunction, CodeBadFD, "fd %d not open", fd)
	}
	return f, nil
}

func (st *session) open(q *rpc.Req) error {
	flags := OpenFlags(q.Int[1])
	f, err := st.backend.Open(q.Str[0], flags)
	if err != nil {
		return err
	}
	fd := st.nextFD
	st.nextFD++
	st.files[fd] = f
	st.pos[fd] = 0
	if flags&FlagAppend != 0 {
		if size, serr := f.Size(); serr == nil {
			st.pos[fd] = size
		}
	}
	q.N = int64(fd)
	return nil
}

func (st *session) close(q *rpc.Req) error {
	fd := int(q.Int[0])
	f, err := st.file(fd)
	if err != nil {
		return err
	}
	delete(st.files, fd)
	delete(st.pos, fd)
	return f.Close()
}

func (st *session) read(q *rpc.Req) error  { return st.readAt(q, nil) }
func (st *session) pread(q *rpc.Req) error { return st.readAt(q, &q.Int[2]) }

// readAt appends to q.Out what it reads at *at, or with at nil at the
// descriptor's offset, which then advances.
func (st *session) readAt(q *rpc.Req, at *int64) error {
	fd, length := int(q.Int[0]), int(q.Int[1])
	f, err := st.file(fd)
	if err != nil {
		return err
	}
	if at != nil {
		q.Out, err = f.ReadAt(q.Out, *at, length)
		return err
	}
	n := len(q.Out)
	if q.Out, err = f.ReadAt(q.Out, st.pos[fd], length); err == nil {
		st.pos[fd] += int64(len(q.Out) - n)
	}
	return err
}

func (st *session) write(q *rpc.Req) error  { return st.writeAt(q, nil) }
func (st *session) pwrite(q *rpc.Req) error { return st.writeAt(q, &q.Int[2]) }

// writeAt is readAt's twin.
func (st *session) writeAt(q *rpc.Req, at *int64) error {
	fd := int(q.Int[0])
	f, err := st.file(fd)
	if err != nil {
		return err
	}
	var n int
	if at != nil {
		n, err = f.WriteAt(*at, q.Data)
	} else if n, err = f.WriteAt(st.pos[fd], q.Data); err == nil {
		st.pos[fd] += int64(n)
	}
	q.N = int64(n)
	return err
}

func (st *session) seek(q *rpc.Req) error {
	fd, off, whence := int(q.Int[0]), q.Int[1], q.Int[2]
	f, err := st.file(fd)
	if err != nil {
		return err
	}
	var base int64
	switch whence {
	case SeekSet:
	case SeekCur:
		base = st.pos[fd]
	case SeekEnd:
		if base, err = f.Size(); err != nil {
			return err
		}
	default:
		return badRequest("bad whence %d", whence)
	}
	if q.N = base + off; q.N < 0 {
		return badRequest("negative seek position")
	}
	st.pos[fd] = q.N
	return nil
}

func (st *session) unlink(q *rpc.Req) error { return st.backend.Unlink(q.Str[0]) }
func (st *session) rename(q *rpc.Req) error { return st.backend.Rename(q.Str[0], q.Str[1]) }

func (st *session) stat(q *rpc.Req) (err error) {
	q.Info, err = st.backend.Stat(q.Str[0])
	return err
}

func (st *session) getdir(q *rpc.Req) (err error) {
	q.List, err = st.backend.List(q.Str[0])
	return err
}

func badCookie() *scope.Error { return scope.New(scope.ScopeProcess, CodeNotAuthed, "bad cookie") }

func (s *Server) serve(conn net.Conn) {
	r := bufio.NewReaderSize(conn, wire.BufSize)
	st := s.newSession()
	defer st.closeAll()
	// A framed client's first byte is a session message type (always
	// >= 0x80); a text client's first byte is a lowercase verb.  One
	// peeked byte selects the protocol, with no bytes consumed.
	var err error
	if first, perr := r.Peek(1); perr == nil && first[0] >= 0x80 {
		err = s.serveFramed(st, conn, r)
	} else {
		err = s.serveText(st, r, bufio.NewWriterSize(conn, wire.BufSize))
	}
	if err != nil {
		s.logErr(err)
	}
}

// serveFramed runs a framed connection; r holds the peeked first byte.
func (s *Server) serveFramed(st *session, conn net.Conn, r *bufio.Reader) error {
	cfg := wire.Config{Secret: []byte(s.secret), AuthFailure: badCookie}
	return rpc.ServeFramed(r, conn, cfg, binQuit, ops.Fallback, func(cmd byte, pl []byte) ([]byte, error) {
		return ops.Frame(st, &st.req, cmd, pl)
	})
}

// serveText runs a text connection: the cookie first, then the table.
// Refusals that end the session (a bad cookie, a request before the
// cookie) are process scope: the client is not who the starter
// revealed the secret to.
func (s *Server) serveText(st *session, r *bufio.Reader, w *bufio.Writer) error {
	authed := false
	refuse := func(err error) { w.WriteString(wire.EncodeError(err, CodeBackend, scope.ScopeLocalResource)) }
	return rpc.ServeText(r, w, func(verb string, a *rpc.Args) (bool, error) {
		switch {
		case verb == "cookie":
			secret := a.Path()
			if err := a.Done(); err != nil {
				refuse(badRequest("cookie: %v", err))
			} else if subtle.ConstantTimeCompare([]byte(secret), []byte(s.secret)) != 1 {
				refuse(badCookie())
				return false, nil
			} else {
				authed = true
				w.WriteString("ok\n")
			}
			return true, nil
		case !authed && verb != "":
			refuse(scope.New(scope.ScopeProcess, CodeNotAuthed, "authenticate first"))
			return false, nil
		}
		return true, ops.Text(st, &st.req, verb, a, r, w)
	})
}
