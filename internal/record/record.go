// Package record is the one `key=value` line language every text codec
// of the repository writes and reads — flock reply, checkpoint,
// monitor stream, schedd journal, JVM program, fault scenario — each a
// short hand-written schema over the primitives here.
//
// There are two grammars, because there are two kinds of reader.  The
// wire's (Reader) is strict: one field order, one spelling per value,
// optionally sealed by a CRC-32 trailer, so a record either decodes
// exactly or fails as an error confined to that record.  The
// journal's (Cursor) is lenient — any order, last duplicate wins,
// unknown keys ignored, every spelling strconv accepts — because a
// journal written by any earlier commit must still recover.  Both
// write through one quoter, AppendQuote.  Callers name their fields
// and decide the order of the checks; nothing here branches on which
// codec it serves.  DESIGN.md ("Record language") has the details.
package record

import (
	"hash/crc32"
	"strconv"
	"sync"
)

// AppendQuote is strconv.AppendQuote specialized for the common case
// of the simulator's encoders — printable ASCII with occasional
// quotes, backslashes, and newlines.  Output is byte-identical to
// strconv.AppendQuote; anything outside the fast cases defers to it.
func AppendQuote(b []byte, s string) []byte {
	n := len(b)
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 0x20 && c < 0x7f {
			if c == '"' || c == '\\' {
				b = append(b, s[start:i]...)
				b = append(b, '\\', c)
				start = i + 1
			}
			continue
		}
		switch c {
		case '\n':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'n')
			start = i + 1
		case '\t':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 't')
			start = i + 1
		case '\r':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'r')
			start = i + 1
		default:
			// Non-ASCII or an exotic control: hand the whole string
			// to strconv for the full escaping rules.
			return strconv.AppendQuote(b[:n], s)
		}
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// appendKey appends the separating space and "key=".
func appendKey(dst []byte, key string) []byte {
	dst = append(dst, ' ')
	dst = append(dst, key...)
	return append(dst, '=')
}

// AppendInt appends the field ` key=v`.
func AppendInt(dst []byte, key string, v int64) []byte {
	return strconv.AppendInt(appendKey(dst, key), v, 10)
}

// AppendBool appends the field ` key=true` or ` key=false`.
func AppendBool(dst []byte, key string, v bool) []byte {
	return strconv.AppendBool(appendKey(dst, key), v)
}

// AppendStr appends the field ` key="v"`, v quoted by AppendQuote.
func AppendStr(dst []byte, key, v string) []byte {
	return AppendQuote(appendKey(dst, key), v)
}

// scratch lends out byte buffers for the two per-record operations on
// the wire's hot paths — building a sealed record and checksumming a
// received one — so that the first costs one allocation (the line) and
// the second none.  crc32's arch-specific update is an indirect call,
// so a buffer passed to it can never live on the stack.
var scratch = sync.Pool{New: func() any { return new([]byte) }}

// Buffer lends an empty pooled buffer to build one sealed record in:
// append to *buf, then hand the result to Seal.
func Buffer() *[]byte {
	buf := scratch.Get().(*[]byte)
	*buf = (*buf)[:0]
	return buf
}

const hexDigits = "0123456789abcdef"

// Seal appends the trailer ` crc=<8 lowercase hex digits>`, the CRC-32
// (IEEE) of every byte before it, to the record dst built in the
// storage of buf, returns the sealed line and gives buf back.
func Seal(buf *[]byte, dst []byte) string {
	sum := crc32.ChecksumIEEE(dst)
	dst = append(dst, " crc="...)
	for shift := 28; shift >= 0; shift -= 4 {
		dst = append(dst, hexDigits[sum>>shift&0xf])
	}
	line := string(dst)
	*buf = dst
	scratch.Put(buf)
	return line
}

// checksum is crc32.ChecksumIEEE([]byte(s)) without the allocation.
func checksum(s string) uint32 {
	buf := scratch.Get().(*[]byte)
	*buf = append((*buf)[:0], s...)
	sum := crc32.ChecksumIEEE(*buf)
	scratch.Put(buf)
	return sum
}
