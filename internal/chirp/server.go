package chirp

import (
	"bufio"
	"crypto/subtle"
	"io"
	"net"
	"slices"
	"strconv"

	"github.com/errscope/grid/internal/rpc"
	"github.com/errscope/grid/internal/scope"
	"github.com/errscope/grid/internal/wire"
)

// maxDataLen bounds a single read or write payload, protecting the
// proxy from a runaway client.
const maxDataLen = rpc.MaxData

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
// protocol's descriptor rules — allocation and the append position on
// open, the implicit offset of read and write, seek arithmetic, close —
// stated once for the text and the frame decoder to share.
type session struct {
	backend Backend
	files   map[int]File
	pos     map[int]int64
	nextFD  int

	// buf is the connection's own scratch, never shared with another
	// connection even when their backends share one link: replies are
	// built in it, and so are text-mode write payloads.  It is reset
	// with wire.Keep after every reply.
	buf []byte
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

func (st *session) open(path string, flags OpenFlags) (int, error) {
	f, err := st.backend.Open(path, flags)
	if err != nil {
		return 0, err
	}
	fd := st.nextFD
	st.nextFD++
	st.files[fd] = f
	if flags&FlagAppend != 0 {
		if size, serr := f.Size(); serr == nil {
			st.pos[fd] = size
		}
	} else {
		st.pos[fd] = 0
	}
	return fd, nil
}

func (st *session) close(fd int) error {
	f, err := st.file(fd)
	if err != nil {
		return err
	}
	delete(st.files, fd)
	delete(st.pos, fd)
	return f.Close()
}

// read appends to dst what it reads at *at, or with at nil at the
// descriptor's offset, which then advances.
func (st *session) read(dst []byte, fd, length int, at *int64) ([]byte, error) {
	f, err := st.file(fd)
	if err != nil {
		return dst, err
	}
	if at != nil {
		return f.ReadAt(dst, *at, length)
	}
	data, err := f.ReadAt(dst, st.pos[fd], length)
	if err == nil {
		st.pos[fd] += int64(len(data) - len(dst))
	}
	return data, err
}

// write is read's twin.
func (st *session) write(fd int, data []byte, at *int64) (int, error) {
	f, err := st.file(fd)
	if err != nil {
		return 0, err
	}
	if at != nil {
		return f.WriteAt(*at, data)
	}
	n, err := f.WriteAt(st.pos[fd], data)
	if err == nil {
		st.pos[fd] += int64(n)
	}
	return n, err
}

func (st *session) seek(fd int, off int64, whence int) (int64, error) {
	f, err := st.file(fd)
	if err != nil {
		return 0, err
	}
	var base int64
	switch whence {
	case SeekSet:
	case SeekCur:
		base = st.pos[fd]
	case SeekEnd:
		if base, err = f.Size(); err != nil {
			return 0, err
		}
	default:
		return 0, badRequest("bad whence %d", whence)
	}
	pos := base + off
	if pos < 0 {
		return 0, badRequest("negative seek position")
	}
	st.pos[fd] = pos
	return pos, nil
}

func (s *Server) serve(conn net.Conn) {
	r := bufio.NewReaderSize(conn, wire.BufSize)
	st := s.newSession()
	defer st.closeAll()
	// A binary client's first byte is a session message type (always
	// >= 0x80); a text client's first byte is a lowercase verb.  One
	// peeked byte selects the protocol, with no bytes consumed.
	if first, err := r.Peek(1); err == nil && first[0] >= 0x80 {
		s.serveBinary(st, conn, r)
		return
	}
	w := bufio.NewWriterSize(conn, wire.BufSize)
	authed := false
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			if err != io.EOF {
				s.logErr(scope.Escape(scope.ScopeNetwork, CodeConnectionLost, err))
			}
			return
		}
		// quit ends the session after the reply; fatal is an escaping
		// error at this layer: it is logged and the connection drops.
		var (
			reply rpc.Reply
			quit  bool
			fatal error
		)
		switch verb, args := rpc.ParseRequest(line); {
		case verb == "":
			reply.Err = badRequest("empty request")
		case verb == "quit":
			quit = true
		case verb == "cookie":
			secret := args.Path()
			if err := args.Done(); err != nil {
				reply.Err = badRequest("cookie: %v", err)
			} else if subtle.ConstantTimeCompare([]byte(secret), []byte(s.secret)) != 1 {
				// A bad cookie invalidates the whole session: the
				// client is not who the starter revealed the secret
				// to.  Process scope, and the connection drops.
				reply.Err, quit = scope.New(scope.ScopeProcess, CodeNotAuthed, "bad cookie"), true
			} else {
				authed = true
			}
		case !authed:
			reply.Err, quit = scope.New(scope.ScopeProcess, CodeNotAuthed, "authenticate first"), true
		case verb == "write" || verb == "pwrite":
			reply, fatal = st.handleWrite(verb, args, r)
		default:
			reply = st.handle(verb, args)
		}
		// Plain errors go out as BackendError at local-resource scope:
		// the proxy cannot explain them, but it can still state their
		// scope.
		reply.WriteTo(w, CodeBackend, scope.ScopeLocalResource)
		if err := w.Flush(); err != nil && fatal == nil {
			fatal = scope.Escape(scope.ScopeNetwork, CodeConnectionLost, err)
		}
		st.buf = wire.Keep(st.buf)
		if fatal != nil {
			s.logErr(fatal)
			return
		}
		if quit {
			return
		}
	}
}

// handle decodes and runs one authenticated text request.  Each verb
// decodes its arguments and runs only if all of them did; otherwise it
// falls out to the refusal at the bottom.
func (st *session) handle(verb string, a *rpc.Args) rpc.Reply {
	switch verb {
	case "open":
		if path, flagArg := a.Path(), a.Next("flags"); a.Done() == nil {
			flags, err := ParseOpenFlags(flagArg)
			if err != nil {
				return rpc.Reply{Err: badRequest("%v", err)}
			}
			fd, err := st.open(path, flags)
			return rpc.Reply{Value: strconv.Itoa(fd), Err: err}
		}
	case "close":
		if fd := a.Int("fd"); a.Done() == nil {
			return rpc.Reply{Err: st.close(fd)}
		}
	case "read", "pread":
		fd, length := a.Int("fd"), a.Int("length")
		var at *int64
		if verb == "pread" {
			off := a.Int64("offset")
			at = &off
		}
		if a.Done() == nil {
			if length < 0 || length > maxDataLen {
				return rpc.Reply{Err: badRequest("bad length %d", length)}
			}
			data, err := st.read(st.buf[:0], fd, length, at)
			st.buf = data
			return rpc.Reply{Value: strconv.Itoa(len(data)), Data: data, Err: err}
		}
	case "lseek":
		if fd, off, whence := a.Int("fd"), a.Int64("offset"), a.Int("whence"); a.Done() == nil {
			pos, err := st.seek(fd, off, whence)
			return rpc.Reply{Value: strconv.FormatInt(pos, 10), Err: err}
		}
	case "unlink":
		if path := a.Path(); a.Done() == nil {
			return rpc.Reply{Err: st.backend.Unlink(path)}
		}
	case "rename":
		if oldPath, newPath := a.Path(), a.Path(); a.Done() == nil {
			return rpc.Reply{Err: st.backend.Rename(oldPath, newPath)}
		}
	case "stat":
		if path := a.Path(); a.Done() == nil {
			info, err := st.backend.Stat(path)
			return rpc.Reply{Value: rpc.InfoLine(info), Err: err}
		}
	case "getdir":
		if prefix := a.Path(); a.Done() == nil {
			infos, err := st.backend.List(prefix)
			return rpc.ListReply(infos, err)
		}
	default:
		return rpc.Reply{Err: badRequest("unknown verb %q", verb)}
	}
	return rpc.Reply{Err: badRequest("%s: %v", verb, a.Done())}
}

// handleWrite decodes and runs a write.  Its payload follows the
// request line, so the length must be acted on before the fd or offset
// may refuse; an error beside the reply is fatal to the connection.
func (st *session) handleWrite(verb string, a *rpc.Args, r *bufio.Reader) (rpc.Reply, error) {
	fdArg, length, offArg := a.Next("fd"), a.Int("length"), ""
	if verb == "pwrite" {
		offArg = a.Next("offset")
	}
	if err := a.Done(); err != nil || length < 0 {
		// The payload length is unusable; the stream is no longer
		// framed and the connection must drop (escaping error).
		return rpc.Reply{Err: badRequest("%s: bad length", verb)},
			scope.New(scope.ScopeNetwork, CodeProtocolError, "unframed write request")
	}
	if length > maxDataLen {
		// The length parsed, so the framing is intact: the declared
		// payload follows on the wire whether we want it or not.
		// Consume and discard it, refuse the request, and keep the
		// session — tearing the connection down here would turn a
		// function-scope refusal into a network-scope failure.
		if _, err := io.CopyN(io.Discard, r, int64(length)); err != nil {
			return rpc.Reply{}, scope.Escape(scope.ScopeNetwork, CodeConnectionLost, err)
		}
		return rpc.Reply{Err: badRequest("length %d exceeds limit %d", length, maxDataLen)}, nil
	}
	// Read the payload before validating the fd or offset: even a
	// doomed request must have its bytes consumed, or the next request
	// line would parse from the middle of this payload and
	// desynchronize the protocol.
	st.buf = slices.Grow(st.buf[:0], length)[:length]
	data := st.buf
	if _, err := io.ReadFull(r, data); err != nil {
		return rpc.Reply{}, scope.Escape(scope.ScopeNetwork, CodeConnectionLost, err)
	}
	fd, err := strconv.Atoi(fdArg)
	if err != nil {
		return rpc.Reply{Err: badRequest("bad fd %q", fdArg)}, nil
	}
	var at *int64
	if verb == "pwrite" {
		off, err := strconv.ParseInt(offArg, 10, 64)
		if err != nil {
			return rpc.Reply{Err: badRequest("bad offset %q", offArg)}, nil
		}
		at = &off
	}
	n, err := st.write(fd, data, at)
	return rpc.Reply{Value: strconv.Itoa(n), Err: err}, nil
}
