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
	sess := wire.NewSession(bufio.NewReader(conn), conn, wire.Config{
		Secret:      s.key,
		AuthFailure: authFailed,
	})
	defer sess.Release()
	if err := sess.ServerHandshake(); err != nil {
		return
	}
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
		resp, err := s.handleBin(cmd, pl)
		if err != nil {
			err = sess.WriteError(err, CodeShadowError, scope.ScopeLocalResource)
		} else {
			err = sess.WriteMsg(wire.CmdOK, resp)
		}
		if err != nil {
			return
		}
	}
}

// handleBin decodes and runs one RPC frame and returns the response
// payload.
func (s *Server) handleBin(cmd byte, pl []byte) ([]byte, error) {
	if err := s.expiry(true); err != nil {
		return nil, err
	}
	cur := wire.NewCursor(pl)
	switch cmd {
	case rioRead:
		off := cur.I64()
		length := int(cur.U32())
		path := cur.RestString()
		if !cur.OK() || length < 0 || length > maxDataLen {
			return nil, badRequest("bad read arguments")
		}
		return s.fs.ReadAt(path, off, length)

	case rioWrite:
		off := cur.I64()
		path := cur.Str()
		data := cur.Rest()
		if !cur.OK() {
			return nil, badRequest("bad write arguments")
		}
		n, err := s.fs.WriteAt(path, off, data)
		return wire.AppendU32(nil, uint32(n)), err

	case rioCreate:
		return nil, s.fs.Create(cur.RestString())
	case rioTrunc:
		return nil, s.fs.WriteFile(cur.RestString(), nil)
	case rioUnlink:
		return nil, s.fs.Unlink(cur.RestString())

	case rioStat:
		info, err := s.fs.Stat(cur.RestString())
		return rpc.AppendInfo(nil, info, true), err

	case rioList:
		infos, err := s.fs.List(cur.RestString())
		return rpc.AppendInfos(nil, infos), err

	case rioRename:
		oldPath := cur.Str()
		newPath := cur.RestString()
		if !cur.OK() {
			return nil, badRequest("bad rename arguments")
		}
		return nil, s.fs.Rename(oldPath, newPath)
	}
	return nil, badRequest("unknown command %#x", cmd)
}
