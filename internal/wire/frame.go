package wire

import (
	"bufio"
	"encoding/binary"
	"hash/crc32"
	"io"
	"sync"

	"github.com/errscope/grid/internal/scope"
)

// The binary frame layer.  Every frame on the wire is
//
//	[0]      command byte
//	[1:3]    sequence counter, big endian, incremented per frame
//	[3:7]    payload length, big endian
//	[7:7+n]  payload
//	[7+n:+4] CRC-32C checksum over header and payload, big endian
//
// The sequence counter makes replayed frames detectable; the checksum
// makes corrupted frames detectable.  Both detections convert what
// would otherwise be an implicit error — a silently wrong payload, a
// silently repeated response — into an explicit error of network
// scope (Principle 1: the layer that can detect must detect).

// Frame geometry.
const (
	frameHeaderLen  = 1 + 2 + 4
	frameTrailerLen = 4
	// FrameOverhead is the fixed per-frame cost beyond the payload.
	FrameOverhead = frameHeaderLen + frameTrailerLen
)

// DefaultMaxPayload bounds one frame's payload: the 16 MiB data limit
// of the file protocols plus slack for sealing and argument headers.
const DefaultMaxPayload = 16<<20 + 4096

// replayWindow is how far behind the expected sequence number a
// frame may sit and still be diagnosed as a replay rather than as
// generic protocol garbage.
const replayWindow = 8

// Error codes of the frame and session layers.  All are conditions
// outside any file interface; the transport classes carry network
// scope, and key expiry — the session's security state becoming
// unusable, like an expired credential — carries local-resource scope.
const (
	CodeChecksumMismatch = "ChecksumMismatch"
	CodeTruncatedFrame   = "TruncatedFrame"
	CodeMACFailure       = "MACFailure"
	CodeReplayedFrame    = "ReplayedFrame"
	CodeKeyExpired       = "KeyExpired"
	CodeFrameProtocol    = "FrameProtocolError"
)

// Shared response commands of the binary file protocols: a success
// frame carrying a value payload, or an error frame carrying an
// encoded scoped error (see EncodeErrorPayload).
const (
	CmdOK  byte = 0xA0
	CmdErr byte = 0xA1
)

// crcTable is the Castagnoli polynomial, the CRC the stdlib
// accelerates with SSE4.2/ARMv8 instructions.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the CRC-32C over the given byte regions, as carried in
// the frame trailer.  (The first cut of this layer used FNV-1a; its
// byte-serial multiply chain cost ~1ns/byte on both sides of every
// frame, which at 4 KiB payloads erased the codec's win over the text
// protocol.  CRC-32C has the same 32-bit trailer and the same
// single-bit-flip detection guarantee, hardware-accelerated.)
func Checksum(parts ...[]byte) uint32 {
	var h uint32
	for _, p := range parts {
		h = crc32.Update(h, crcTable, p)
	}
	return h
}

// AppendFrame appends one encoded frame to dst and returns the
// extended slice.  The payload may be given in parts; they are
// concatenated on the wire.
func AppendFrame(dst []byte, cmd byte, seq uint16, parts ...[]byte) []byte {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	start := len(dst)
	dst = append(dst, cmd, byte(seq>>8), byte(seq))
	dst = binary.BigEndian.AppendUint32(dst, uint32(n))
	for _, p := range parts {
		dst = append(dst, p...)
	}
	sum := Checksum(dst[start:])
	return binary.BigEndian.AppendUint32(dst, sum)
}

// DecodeFrame parses one complete frame from buf.  The returned
// payload aliases buf (zero copy).  Truncation and corruption come
// back as scoped errors of network scope, the codes the fault sweep
// asserts on.
func DecodeFrame(buf []byte) (cmd byte, seq uint16, payload []byte, err error) {
	if len(buf) < FrameOverhead {
		return 0, 0, nil, scope.New(scope.ScopeNetwork, CodeTruncatedFrame,
			"frame truncated: %d of %d header bytes", len(buf), FrameOverhead)
	}
	n := binary.BigEndian.Uint32(buf[3:7])
	if n > uint32(len(buf)-FrameOverhead) {
		return 0, 0, nil, scope.New(scope.ScopeNetwork, CodeTruncatedFrame,
			"frame truncated: %d of %d payload bytes", len(buf)-FrameOverhead, n)
	}
	end := frameHeaderLen + int(n)
	want := binary.BigEndian.Uint32(buf[end : end+frameTrailerLen])
	if got := Checksum(buf[:end]); got != want {
		return 0, 0, nil, scope.New(scope.ScopeNetwork, CodeChecksumMismatch,
			"frame checksum %08x, want %08x", got, want)
	}
	return buf[0], binary.BigEndian.Uint16(buf[1:3]), buf[frameHeaderLen:end], nil
}

// frameBufPool recycles frame buffers between connections; reads are
// zero copy into the pooled buffer.
var frameBufPool = sync.Pool{
	New: func() any { return make([]byte, 0, 64<<10) },
}

// FrameReader reads frames from a stream, verifying checksum and
// sequence on each.  The payload returned by Next aliases an internal
// pooled buffer and is valid only until the next call.
type FrameReader struct {
	r   *bufio.Reader
	buf []byte
	max int
	seq uint16
}

// NewFrameReader wraps r; maxPayload <= 0 uses DefaultMaxPayload.
func NewFrameReader(r *bufio.Reader, maxPayload int) *FrameReader {
	if maxPayload <= 0 {
		maxPayload = DefaultMaxPayload
	}
	return &FrameReader{r: r, buf: frameBufPool.Get().([]byte), max: maxPayload}
}

// Release returns the reader's buffer to the pool.  The reader must
// not be used afterwards.
func (fr *FrameReader) Release() {
	if fr.buf != nil {
		frameBufPool.Put(fr.buf[:0])
		fr.buf = nil
	}
}

// grow ensures the scratch buffer holds n bytes.  A reallocation keeps
// the frame header already read into the old buffer: the checksum
// covers it.
func (fr *FrameReader) grow(n int) []byte {
	if cap(fr.buf) < n {
		buf := make([]byte, frameHeaderLen, n+n/2)
		copy(buf, fr.buf[:frameHeaderLen])
		fr.buf = buf
	}
	return fr.buf[:n]
}

// Next reads one frame.  A clean EOF before any header byte is
// io.EOF; anything partial is a truncated frame.  The payload is
// valid until the next call to Next.
func (fr *FrameReader) Next() (cmd byte, payload []byte, err error) {
	hdr := fr.grow(frameHeaderLen)
	if _, err := io.ReadFull(fr.r, hdr); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, scope.New(scope.ScopeNetwork, CodeTruncatedFrame,
			"frame header truncated: %v", err)
	}
	n := binary.BigEndian.Uint32(hdr[3:7])
	if n > uint32(fr.max) {
		return 0, nil, scope.New(scope.ScopeNetwork, CodeFrameProtocol,
			"frame payload %d exceeds limit %d", n, fr.max)
	}
	buf := fr.grow(frameHeaderLen + int(n) + frameTrailerLen)
	if _, err := io.ReadFull(fr.r, buf[frameHeaderLen:]); err != nil {
		return 0, nil, scope.New(scope.ScopeNetwork, CodeTruncatedFrame,
			"frame body truncated: %v", err)
	}
	end := frameHeaderLen + int(n)
	want := binary.BigEndian.Uint32(buf[end:])
	if got := Checksum(buf[:end]); got != want {
		return 0, nil, scope.New(scope.ScopeNetwork, CodeChecksumMismatch,
			"frame checksum %08x, want %08x", got, want)
	}
	got := binary.BigEndian.Uint16(buf[1:3])
	if got != fr.seq {
		if behind := fr.seq - got; behind <= replayWindow {
			return 0, nil, scope.New(scope.ScopeNetwork, CodeReplayedFrame,
				"frame sequence %d replayed (expected %d)", got, fr.seq)
		}
		return 0, nil, scope.New(scope.ScopeNetwork, CodeFrameProtocol,
			"frame sequence %d, expected %d", got, fr.seq)
	}
	fr.seq++
	return buf[0], buf[frameHeaderLen:end], nil
}

// FrameWriter writes frames to a stream, one Write call per frame: a
// response header and its payload leave in a single syscall, where the
// text protocol's line-plus-data shape could take two.
type FrameWriter struct {
	w   io.Writer
	buf []byte
	seq uint16
}

// NewFrameWriter wraps w.
func NewFrameWriter(w io.Writer) *FrameWriter {
	return &FrameWriter{w: w, buf: frameBufPool.Get().([]byte)}
}

// Release returns the writer's buffer to the pool.
func (fw *FrameWriter) Release() {
	if fw.buf != nil {
		frameBufPool.Put(fw.buf[:0])
		fw.buf = nil
	}
}

// WriteFrame encodes and writes one frame, advancing the sequence
// counter.
func (fw *FrameWriter) WriteFrame(cmd byte, parts ...[]byte) error {
	fw.buf = AppendFrame(fw.buf[:0], cmd, fw.seq, parts...)
	fw.seq++
	_, err := fw.w.Write(fw.buf)
	return err
}
