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

// InfoLine renders the text form.
func InfoLine(info vfs.Info) string {
	return fmt.Sprintf("%d %d %s", info.Size, roBit(info.ReadOnly), wire.Quote(info.Path))
}

// ListReply is the text reply to a list request: "ok n" followed by n
// stat-record lines.
func ListReply(infos []vfs.Info, err error) Reply {
	rp := Reply{Value: strconv.Itoa(len(infos)), Err: err}
	for _, info := range infos {
		rp.Data = append(append(rp.Data, InfoLine(info)...), '\n')
	}
	return rp
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

// AppendInfo appends the framed form; last says the record ends the
// payload.
func AppendInfo(dst []byte, info vfs.Info, last bool) []byte {
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

// AppendInfos appends a framed list reply.
func AppendInfos(dst []byte, infos []vfs.Info) []byte {
	dst = wire.AppendU32(dst, uint32(len(infos)))
	for _, info := range infos {
		dst = AppendInfo(dst, info, false)
	}
	return dst
}

// CallStat is one text round trip whose reply value is a stat record.
func (c *Client) CallStat(request string) (vfs.Info, error) {
	v, err := c.Call(request)
	if err != nil {
		return vfs.Info{}, err
	}
	info, err := parseInfo(v)
	if err != nil {
		return vfs.Info{}, c.Fail(err)
	}
	return info, nil
}

// CallList is one text round trip whose reply is "ok n" followed by n
// lines of `size ro "path"`.
func (c *Client) CallList(request string) ([]vfs.Info, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.begin(); err != nil {
		return nil, err
	}
	defer c.disarm()
	value, err := c.textCall(request, nil)
	if err != nil {
		return nil, err
	}
	n, convErr := strconv.Atoi(value)
	if convErr != nil || n < 0 || n > maxList {
		return nil, c.fail(fmt.Errorf("bad list count %q", value))
	}
	out := make([]vfs.Info, 0, n)
	for i := 0; i < n; i++ {
		entry, err := c.r.ReadString('\n')
		if err != nil {
			return nil, c.fail(err)
		}
		info, err := parseInfo(strings.TrimRight(entry, "\r\n"))
		if err != nil {
			return nil, c.fail(err)
		}
		out = append(out, info)
	}
	return out, nil
}

// CallStatBin is one framed round trip, path out and a stat record back.
func (c *Client) CallStatBin(cmd byte, path string) (vfs.Info, error) {
	pl, err := c.CallBin(nil, cmd, []byte(path))
	if err != nil {
		return vfs.Info{}, err
	}
	cur := wire.NewCursor(pl)
	info := readInfo(&cur, true)
	if !cur.Done() {
		return vfs.Info{}, c.Fail(fmt.Errorf("bad stat response (%d bytes)", len(pl)))
	}
	return info, nil
}

// CallListBin is one framed round trip, prefix out and count u32 plus
// that many stat records back.
func (c *Client) CallListBin(cmd byte, prefix string) ([]vfs.Info, error) {
	pl, err := c.CallBin(nil, cmd, []byte(prefix))
	if err != nil {
		return nil, err
	}
	cur := wire.NewCursor(pl)
	n := int(cur.U32())
	if !cur.OK() || n > maxList {
		return nil, c.Fail(fmt.Errorf("bad list response (%d bytes)", len(pl)))
	}
	out := make([]vfs.Info, 0, n)
	for i := 0; i < n && cur.OK(); i++ {
		out = append(out, readInfo(&cur, false))
	}
	if !cur.Done() {
		return nil, c.Fail(fmt.Errorf("bad list entries (%d bytes)", len(pl)))
	}
	return out, nil
}
