package rpc

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/errscope/grid/internal/vfs"
	"github.com/errscope/grid/internal/wire"
)

// The stat record of the file protocols — size, read-only flag, path —
// in its two encodings.  Text: `size ro "path"`, the value of a stat
// reply and each entry line of a list reply.  Framed: size i64, ro u8,
// then the path, length-prefixed inside a list and running to the end
// of the payload when the record stands alone.

// maxList bounds the entry count of one list reply.
const maxList = 1 << 20

func roBit(ro bool) byte {
	if ro {
		return 1
	}
	return 0
}

// appendInfoLine appends the text form.
func appendInfoLine(dst []byte, info vfs.Info) []byte {
	dst = append(strconv.AppendInt(dst, info.Size, 10), ' ', '0'+roBit(info.ReadOnly), ' ')
	return strconv.AppendQuote(dst, info.Path)
}

// parseInfo parses the text form.  The quoted path is cut from the raw
// line, not rebuilt from white-space-split fields, which would collapse
// consecutive spaces inside it.
func parseInfo(s string) (vfs.Info, error) {
	sizeField, rest, _ := strings.Cut(s, " ")
	roField, quoted, _ := strings.Cut(rest, " ")
	size, err1 := strconv.ParseInt(sizeField, 10, 64)
	ro, err2 := strconv.Atoi(roField)
	path, err3 := wire.Unquote(quoted)
	if err1 != nil || err2 != nil || err3 != nil {
		return vfs.Info{}, fmt.Errorf("bad stat record %q", s)
	}
	return vfs.Info{Path: path, Size: size, ReadOnly: ro != 0}, nil
}

// appendInfo appends the framed form; last says the record ends the
// payload.
func appendInfo(dst []byte, info vfs.Info, last bool) []byte {
	dst = append(wire.AppendI64(dst, info.Size), roBit(info.ReadOnly))
	if last {
		return append(dst, info.Path...)
	}
	return wire.AppendStr(dst, info.Path)
}

// readInfo reads the framed form; the caller checks the cursor.
func readInfo(cur *wire.Cursor, last bool) vfs.Info {
	var info vfs.Info
	info.Size = cur.I64()
	info.ReadOnly = cur.U8() != 0
	if last {
		info.Path = cur.RestString()
	} else {
		info.Path = cur.Str()
	}
	return info
}

// appendInfos appends a framed list reply.
func appendInfos(dst []byte, infos []vfs.Info) []byte {
	dst = wire.AppendU32(dst, uint32(len(infos)))
	for _, info := range infos {
		dst = appendInfo(dst, info, false)
	}
	return dst
}
