package chirp

import (
	"bufio"
	"io"
	"net"

	"github.com/errscope/grid/internal/rpc"
	"github.com/errscope/grid/internal/scope"
	"github.com/errscope/grid/internal/wire"
)

// The binary server side.  The framing is self-delimiting (every
// request is one checksummed frame), so unlike the text protocol a
// malformed request can never desynchronize the stream: the server
// replies with a function-scope error and keeps the session.

// serveBinary handles one framed connection; r already holds the
// peeked first byte.
func (s *Server) serveBinary(st *session, conn net.Conn, r *bufio.Reader) {
	sess := wire.NewSession(r, conn, wire.Config{
		Secret: []byte(s.secret),
		AuthFailure: func() *scope.Error {
			return scope.New(scope.ScopeProcess, CodeNotAuthed, "bad cookie")
		},
	})
	defer sess.Release()
	if err := sess.ServerHandshake(); err != nil {
		s.logErr(err)
		return
	}
	for {
		cmd, pl, err := sess.ReadMsg()
		if err != nil {
			if err != io.EOF {
				s.logErr(err)
			}
			return
		}
		if cmd == binQuit {
			if err := sess.WriteMsg(wire.CmdOK); err != nil {
				s.logErr(err)
			}
			return
		}
		// Refusals are answered in-band; only a failed response write
		// is fatal to the connection.
		resp, err := st.handleBin(st.buf[:0], cmd, pl)
		if err != nil {
			err = sess.WriteError(err, CodeBackend, scope.ScopeLocalResource)
		} else {
			err = sess.WriteMsg(wire.CmdOK, resp)
		}
		st.buf = wire.Keep(resp)
		if err != nil {
			s.logErr(err)
			return
		}
	}
}

// handleBin decodes and runs one request frame and appends the
// response payload to dst.  Every path returns dst or its extension, so
// the connection keeps its buffer across refusals.  A write's data
// aliases the request frame.
func (st *session) handleBin(dst []byte, cmd byte, pl []byte) ([]byte, error) {
	cur := wire.NewCursor(pl)
	switch cmd {
	case binOpen:
		flags := OpenFlags(cur.U8())
		path := cur.RestString()
		if !cur.OK() {
			return dst, badRequest("open: short payload")
		}
		fd, err := st.open(path, flags)
		return wire.AppendU32(dst, uint32(fd)), err

	case binClose:
		fd := int(cur.U32())
		if !cur.OK() {
			return dst, badRequest("missing fd")
		}
		return dst, st.close(fd)

	case binRead, binPRead:
		fd, length := int(cur.U32()), int(cur.U32())
		var at *int64
		if cmd == binPRead {
			off := cur.I64()
			at = &off
		}
		if !cur.Done() || length < 0 || length > maxDataLen {
			return dst, badRequest("read: bad arguments")
		}
		return st.read(dst, fd, length, at)

	case binWrite, binPWrite:
		fd := int(cur.U32())
		var at *int64
		if cmd == binPWrite {
			off := cur.I64()
			at = &off
		}
		data := cur.Rest()
		if !cur.OK() {
			return dst, badRequest("write: short payload")
		}
		n, err := st.write(fd, data, at)
		return wire.AppendU32(dst, uint32(n)), err

	case binSeek:
		fd, whence, off := int(cur.U32()), int(cur.U8()), cur.I64()
		if !cur.Done() {
			return dst, badRequest("lseek: bad arguments")
		}
		pos, err := st.seek(fd, off, whence)
		return wire.AppendI64(dst, pos), err

	case binUnlink:
		return dst, st.backend.Unlink(cur.RestString())

	case binRename:
		oldPath := cur.Str()
		newPath := cur.RestString()
		if !cur.OK() {
			return dst, badRequest("rename: short payload")
		}
		return dst, st.backend.Rename(oldPath, newPath)

	case binStat:
		info, err := st.backend.Stat(cur.RestString())
		return rpc.AppendInfo(dst, info, true), err

	case binGetdir:
		infos, err := st.backend.List(cur.RestString())
		return rpc.AppendInfos(dst, infos), err
	}
	return dst, badRequest("unknown command %#x", cmd)
}
