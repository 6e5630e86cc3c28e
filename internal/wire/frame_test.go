package wire

import (
	"bufio"
	"bytes"
	"io"
	"testing"

	"github.com/errscope/grid/internal/scope"
)

func mustScope(t *testing.T, err error, code string) *scope.Error {
	t.Helper()
	se, ok := scope.AsError(err)
	if !ok {
		t.Fatalf("error %v is not scoped", err)
	}
	if se.Code != code {
		t.Fatalf("code = %s, want %s (err: %v)", se.Code, code, err)
	}
	if se.Scope != scope.ScopeNetwork {
		t.Fatalf("scope = %s, want network (err: %v)", se.Scope, err)
	}
	return se
}

func TestFrameRoundTrip(t *testing.T) {
	var stream []byte
	payloads := [][]byte{
		nil,
		[]byte("x"),
		bytes.Repeat([]byte("abc"), 1000),
		make([]byte, 0),
		[]byte{0x00, 0xFF, 0x80},
	}
	for i, p := range payloads {
		stream = AppendFrame(stream, byte(0x90+i), uint16(i), p)
	}
	fr := NewFrameReader(bufio.NewReader(bytes.NewReader(stream)), 0)
	defer fr.Release()
	for i, p := range payloads {
		cmd, payload, err := fr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if cmd != byte(0x90+i) {
			t.Fatalf("frame %d: cmd = %#x", i, cmd)
		}
		if !bytes.Equal(payload, p) {
			t.Fatalf("frame %d: payload mismatch (%d vs %d bytes)", i, len(payload), len(p))
		}
	}
	if _, _, err := fr.Next(); err != io.EOF {
		t.Fatalf("after last frame: %v, want io.EOF", err)
	}
}

func TestFrameMultipart(t *testing.T) {
	frame := AppendFrame(nil, 0x42, 7, []byte("hel"), []byte("lo "), []byte("world"))
	cmd, seq, payload, err := DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if cmd != 0x42 || seq != 7 || string(payload) != "hello world" {
		t.Fatalf("decoded cmd=%#x seq=%d payload=%q", cmd, seq, payload)
	}
}

func TestDecodeFrameFlippedBits(t *testing.T) {
	frame := AppendFrame(nil, 0x01, 0, []byte("payload under test"))
	for i := range frame {
		mut := append([]byte(nil), frame...)
		mut[i] ^= 0x20
		_, _, _, err := DecodeFrame(mut)
		if err == nil {
			t.Fatalf("flip at byte %d went undetected", i)
		}
		se, ok := scope.AsError(err)
		if !ok || se.Scope != scope.ScopeNetwork {
			t.Fatalf("flip at byte %d: unscoped or non-network error %v", i, err)
		}
	}
}

// TestTruncationEveryOffset feeds the reader every proper prefix of a
// multi-frame stream; every cut must surface as either a clean EOF (at
// a frame boundary) or a network-scoped TruncatedFrame, never as a
// decoded frame with wrong bytes.
func TestTruncationEveryOffset(t *testing.T) {
	var stream []byte
	boundaries := map[int]bool{0: true}
	for i := 0; i < 3; i++ {
		stream = AppendFrame(stream, byte(i+1), uint16(i), bytes.Repeat([]byte{byte('a' + i)}, 50+i*13))
		boundaries[len(stream)] = true
	}
	for cut := 0; cut < len(stream); cut++ {
		fr := NewFrameReader(bufio.NewReader(bytes.NewReader(stream[:cut])), 0)
		var err error
		for err == nil {
			_, _, err = fr.Next()
		}
		if boundaries[cut] {
			if err != io.EOF {
				t.Fatalf("cut %d at boundary: %v, want io.EOF", cut, err)
			}
		} else {
			mustScope(t, err, CodeTruncatedFrame)
		}
		fr.Release()
	}
}

func TestFrameReaderReplay(t *testing.T) {
	one := AppendFrame(nil, 0x11, 0, []byte("first"))
	stream := append(append([]byte(nil), one...), one...) // same frame twice
	fr := NewFrameReader(bufio.NewReader(bytes.NewReader(stream)), 0)
	defer fr.Release()
	if _, _, err := fr.Next(); err != nil {
		t.Fatal(err)
	}
	_, _, err := fr.Next()
	mustScope(t, err, CodeReplayedFrame)
}

func TestFrameReaderSequenceJump(t *testing.T) {
	// A frame far ahead of the expected counter is protocol garbage,
	// not a replay.
	stream := AppendFrame(nil, 0x11, 1000, []byte("x"))
	fr := NewFrameReader(bufio.NewReader(bytes.NewReader(stream)), 0)
	defer fr.Release()
	_, _, err := fr.Next()
	mustScope(t, err, CodeFrameProtocol)
}

func TestFrameReaderOversize(t *testing.T) {
	stream := AppendFrame(nil, 0x11, 0, bytes.Repeat([]byte("z"), 2048))
	fr := NewFrameReader(bufio.NewReader(bytes.NewReader(stream)), 1024)
	defer fr.Release()
	_, _, err := fr.Next()
	mustScope(t, err, CodeFrameProtocol)
}

// TestFrameReaderLargePayloads is the regression for frames that
// outgrow the pooled 64 KiB buffer: the reallocation used to drop the
// header bytes already read, so the checksum covered zeros and every
// such frame died as ChecksumMismatch.  Each size starts from a buffer
// of the pool's initial capacity, so the larger ones must grow, and a
// small frame follows each large one to show the reader stays in step.
func TestFrameReaderLargePayloads(t *testing.T) {
	initial := cap(frameBufPool.New().([]byte))
	for _, n := range []int{initial - FrameOverhead - 1, initial - FrameOverhead, initial, 1 << 20, 16 << 20} {
		payload := bytes.Repeat([]byte{0xA5, 0x5A, 0x3C}, n/3+1)[:n]
		stream := AppendFrame(nil, 0x92, 0, payload)
		stream = AppendFrame(stream, 0x93, 1, []byte("next"))
		fr := &FrameReader{
			r:   bufio.NewReader(bytes.NewReader(stream)),
			buf: make([]byte, 0, initial),
			max: DefaultMaxPayload,
		}
		cmd, got, err := fr.Next()
		if err != nil || cmd != 0x92 || !bytes.Equal(got, payload) {
			t.Fatalf("%d-byte payload: cmd %#x, %d bytes, err %v", n, cmd, len(got), err)
		}
		if cmd, got, err = fr.Next(); err != nil || cmd != 0x93 || string(got) != "next" {
			t.Fatalf("frame after the %d-byte payload: cmd %#x, %q, err %v", n, cmd, got, err)
		}
	}
}

func FuzzDecodeFrame(f *testing.F) {
	f.Add(AppendFrame(nil, 0x90, 0, []byte("seed payload")))
	f.Add(AppendFrame(nil, 0xA0, 3))
	f.Add([]byte{})
	f.Add([]byte{0x90, 0, 0, 0, 0, 0, 0})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		cmd, seq, payload, err := DecodeFrame(data)
		if err != nil {
			if _, ok := scope.AsError(err); !ok {
				t.Fatalf("unscoped decode error: %v", err)
			}
			return
		}
		// A frame that decodes must re-encode to the same bytes.
		again := AppendFrame(nil, cmd, seq, payload)
		if !bytes.Equal(again, data[:len(again)]) {
			t.Fatalf("re-encode mismatch")
		}
	})
}

func FuzzFrameReader(f *testing.F) {
	f.Add(AppendFrame(AppendFrame(nil, 1, 0, []byte("a")), 2, 1, []byte("b")))
	f.Add([]byte{0xE0, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := NewFrameReader(bufio.NewReader(bytes.NewReader(data)), 1<<16)
		defer fr.Release()
		for i := 0; i < 8; i++ {
			_, _, err := fr.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				if _, ok := scope.AsError(err); !ok {
					t.Fatalf("unscoped reader error: %v", err)
				}
				return
			}
		}
	})
}

func TestCursorRoundTrip(t *testing.T) {
	var b []byte
	b = AppendU16(b, 65535)
	b = AppendU32(b, 1<<31)
	b = AppendI64(b, -42)
	b = AppendStr(b, "path/with  spaces")
	b = append(b, 0x07)
	cur := NewCursor(b)
	if v := cur.U16(); v != 65535 {
		t.Fatalf("u16 = %d", v)
	}
	if v := cur.U32(); v != 1<<31 {
		t.Fatalf("u32 = %d", v)
	}
	if v := cur.I64(); v != -42 {
		t.Fatalf("i64 = %d", v)
	}
	if v := cur.Str(); v != "path/with  spaces" {
		t.Fatalf("str = %q", v)
	}
	if v := cur.U8(); v != 0x07 {
		t.Fatalf("u8 = %#x", v)
	}
	if !cur.Done() {
		t.Fatal("cursor not done")
	}
}

func TestCursorUnderflow(t *testing.T) {
	cur := NewCursor([]byte{0x01})
	_ = cur.U32()
	if cur.OK() {
		t.Fatal("underflow not flagged")
	}
	if cur.Done() {
		t.Fatal("bad cursor reports done")
	}
	// Further reads stay zero-valued and sticky-bad, never panic.
	if cur.I64() != 0 || cur.Str() != "" || cur.OK() {
		t.Fatal("sticky error violated")
	}
}

func TestErrorPayloadRoundTrip(t *testing.T) {
	in := scope.Escape(scope.ScopeNetwork, "ConnectionLost", io.ErrUnexpectedEOF)
	out, err := DecodeErrorPayload(EncodeErrorPayload(in, "F", scope.ScopeProcess))
	if err != nil {
		t.Fatal(err)
	}
	if out.Scope != in.Scope || out.Kind != in.Kind || out.Code != in.Code {
		t.Fatalf("round trip %+v -> %+v", in, out)
	}
	if out.Message != io.ErrUnexpectedEOF.Error() {
		t.Fatalf("message = %q", out.Message)
	}
}

func TestErrorPayloadFallback(t *testing.T) {
	out, err := DecodeErrorPayload(EncodeErrorPayload(io.ErrShortWrite, "Backend", scope.ScopeLocalResource))
	if err != nil {
		t.Fatal(err)
	}
	if out.Code != "Backend" || out.Scope != scope.ScopeLocalResource || out.Kind != scope.KindExplicit {
		t.Fatalf("out = %+v", out)
	}
}

func TestDecodeErrorPayloadMalformed(t *testing.T) {
	good := EncodeErrorPayload(scope.New(scope.ScopeJob, "C", "m"), "F", scope.ScopeProcess)
	cases := [][]byte{
		nil,
		{0x01},
		good[:len(good)-1], // truncated
		append(append([]byte(nil), good...), 0xFF), // trailing garbage
		{99, 0, 0, 1, 'C', 0, 0},                   // invalid scope
	}
	for i, b := range cases {
		if _, err := DecodeErrorPayload(b); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}
