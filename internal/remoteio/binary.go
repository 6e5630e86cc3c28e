package remoteio

import (
	"bufio"
	"net"

	"github.com/errscope/grid/internal/rpc"
	"github.com/errscope/grid/internal/scope"
	"github.com/errscope/grid/internal/wire"
)

// The binary server side.  Framing is self-delimiting, so malformed
// requests are refused in-band and never desynchronize the stream.

func (s *Server) serveBinary(conn net.Conn) {
	sess := wire.NewSession(bufio.NewReaderSize(conn, wire.BufSize), conn, wire.Config{
		Secret:      s.key,
		AuthFailure: authFailed,
	})
	defer sess.Release()
	if err := sess.ServerHandshake(); err != nil {
		return
	}
	var buf []byte // the connection's reply scratch, reset with wire.Keep
	for {
		cmd, pl, err := sess.ReadMsg()
		if err != nil {
			return
		}
		if cmd == rioQuit {
			_ = sess.WriteMsg(wire.CmdOK) // the client is already leaving
			return
		}
		// Refusals are answered in-band; only a failed response write
		// ends the connection.
		resp, err := s.handleBin(buf, cmd, pl)
		if err != nil {
			err = sess.WriteError(err, CodeShadowError, scope.ScopeLocalResource)
		} else {
			err = sess.WriteMsg(wire.CmdOK, resp)
		}
		buf = wire.Keep(resp)
		if err != nil {
			return
		}
	}
}

// handleBin decodes and runs one RPC frame and appends the response
// payload to dst.  Every path returns dst or its extension, so the
// connection keeps its buffer across refusals.  A write's data aliases
// the request frame.
func (s *Server) handleBin(dst []byte, cmd byte, pl []byte) ([]byte, error) {
	if err := s.expiry(true); err != nil {
		return dst, err
	}
	cur := wire.NewCursor(pl)
	switch cmd {
	case rioRead:
		off := cur.I64()
		length := int(cur.U32())
		path := cur.RestString()
		if !cur.OK() || length < 0 || length > maxDataLen {
			return dst, badRequest("bad read arguments")
		}
		return s.fs.AppendAt(dst, path, off, length)

	case rioWrite:
		off := cur.I64()
		path := cur.Str()
		data := cur.Rest()
		if !cur.OK() {
			return dst, badRequest("bad write arguments")
		}
		n, err := s.fs.WriteAt(path, off, data)
		return wire.AppendU32(dst, uint32(n)), err

	case rioCreate:
		return dst, s.fs.Create(cur.RestString())
	case rioTrunc:
		return dst, s.fs.WriteFile(cur.RestString(), nil)
	case rioUnlink:
		return dst, s.fs.Unlink(cur.RestString())

	case rioStat:
		info, err := s.fs.Stat(cur.RestString())
		return rpc.AppendInfo(dst, info, true), err

	case rioList:
		infos, err := s.fs.List(cur.RestString())
		return rpc.AppendInfos(dst, infos), err

	case rioRename:
		oldPath := cur.Str()
		newPath := cur.RestString()
		if !cur.OK() {
			return dst, badRequest("bad rename arguments")
		}
		return dst, s.fs.Rename(oldPath, newPath)
	}
	return dst, badRequest("unknown command %#x", cmd)
}
