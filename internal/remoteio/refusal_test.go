package remoteio

import (
	"bufio"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/errscope/grid/internal/chirp"
	"github.com/errscope/grid/internal/rpc"
	"github.com/errscope/grid/internal/scope"
	"github.com/errscope/grid/internal/vfs"
	"github.com/errscope/grid/internal/wire"
)

// The refusal transcripts pin what both servers answer to malformed
// requests, in every mode: bad arity, bad integers, unquoted paths,
// short frames and frames with trailing bytes, an unknown verb or
// command byte, oversize and unparseable write lengths.  Each request
// is sent raw, its reply is recorded, and then a probe (a stat of /f)
// records whether the session survived; after a drop the script
// reconnects and goes on.  The framed transcripts record the decoded
// reply, so the binary and secure ones read alike.
//
// Regenerate with `go test ./internal/remoteio -run
// TestRefusalTranscripts -update` only when a refusal is meant to
// change.

// refusal is one raw request: a text line with any payload after it
// and pad more bytes, or a frame.
type refusal struct {
	text string
	pad  int
	cmd  byte
	pl   []byte
}

func line(s string) refusal              { return refusal{text: s + "\n"} }
func frame(cmd byte, pl ...byte) refusal { return refusal{cmd: cmd, pl: pl} }

// oversize is a write length that parses but exceeds rpc.MaxData.
var oversize = rpc.MaxData + 3

func oversizeWrite(format string) refusal {
	return refusal{text: fmt.Sprintf(format, oversize) + "\n", pad: oversize}
}

// padding is what a refusal's pad bytes are sent from.
var padding = []byte(strings.Repeat("a", 64<<10))

var chirpTextRefusals = []refusal{
	// arity
	line(`open "/f"`), line(`open "/f" r extra`), line("close"), line("read 3"), line("pread 3 1"),
	line("lseek 3 0"), line("unlink"), line(`rename "/f"`), line("stat"), line("getdir"), line(`stat "/f" "/g"`),
	// integers
	line("close x"), line("close 99999999999999999999"), line("read x 5"), line("read 3 -1"),
	line(fmt.Sprintf("read 3 %d", rpc.MaxData+1)), line("pread 3 1 x"), line("lseek 3 x 0"), line("lseek 3 0 x"),
	line("lseek 3 0 7"),
	// paths and flags
	line("open /f r"), line(`open "/f" q`), line("stat /f"), line(`stat "/f`), line("unlink /f"),
	line(`rename /f "/g"`), line(`rename "/f" /g`), line("getdir /"),
	// verbs
	line("bogus"), line(""),
	// writes: drained refusals, then the ones that lose the framing
	{text: "write 99 4\nstat"}, {text: "write x 4\nabcd"}, {text: "pwrite 3 4 x\nabcd"},
	oversizeWrite("write 3 %d"), oversizeWrite("pwrite 3 %d 0"),
	{text: "pwrite 3 4\nabcd"}, {text: "write 3 4 extra\nabcd"}, line("write 3 notanumber"), line("write 3 -1"),
}

var remoteioTextRefusals = []refusal{
	// arity
	line(`read "/f" 0`), line(`read "/f" 0 1 extra`), line("create"), line("trunc"), line("unlink"),
	line("stat"), line("list"), line(`rename "/f"`), line(`stat "/f" "/g"`),
	// integers
	line(`read "/f" x 1`), line(`read "/f" 0 x`), line(`read "/f" 0 -1`),
	line(fmt.Sprintf(`read "/f" 0 %d`, rpc.MaxData+1)),
	// paths
	line("read /f 0 1"), line("create /g"), line("stat /f"), line(`stat "/f`), line(`rename /f "/g"`),
	line("list /"),
	// verbs
	line("bogus"), line(""),
	// writes: drained refusals, then the ones that lose the framing
	{text: "write /f 0 4\nstat"}, {text: "write \"/f\" x 4\nstat"}, oversizeWrite(`write "/f" 0 %d`),
	{text: "write \"/f\" 0 4 extra\nabcd"}, line(`write "/f" 0`), line(`write "/f" 0 x`), line(`write "/f" 0 -1`),
}

func u32(v uint32) []byte { return wire.AppendU32(nil, v) }

func cat(parts ...[]byte) []byte {
	var out []byte
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

var chirpFrameRefusals = []refusal{
	frame(0x90),                       // open: no flags
	frame(0x91), frame(0x91, 0, 0, 3), // close: short
	frame(0x91, 0, 0, 0, 3, 9),                      // close: trailing byte
	frame(0x92, 0, 0, 0, 3),                         // read: short
	{cmd: 0x92, pl: cat(u32(3), u32(1), []byte{9})}, // read: trailing byte
	{cmd: 0x92, pl: cat(u32(3), u32(rpc.MaxData+1))},
	{cmd: 0x93, pl: cat(u32(3), u32(1))},                                    // pread: short
	{cmd: 0x93, pl: cat(u32(3), u32(1), wire.AppendI64(nil, 0), []byte{9})}, // pread: trailing
	frame(0x94, 0, 0),                                                       // write: short
	{cmd: 0x95, pl: cat(u32(3), []byte{0, 0, 0, 0})},                        // pwrite: short
	{cmd: 0x96, pl: cat(u32(3), []byte{0})},                                 // lseek: short
	{cmd: 0x96, pl: cat(u32(3), []byte{0}, wire.AppendI64(nil, 0), []byte{9})},
	frame(0x97), frame(0x98), frame(0x98, 0, 5, 'a'), frame(0x99), // empty paths, short rename
	frame(0x9B), frame(0x80, 1, 2), // unknown commands
}

var remoteioFrameRefusals = []refusal{
	frame(0xB0, 0, 0, 0, 0), // read: short
	{cmd: 0xB0, pl: cat(wire.AppendI64(nil, 0), u32(rpc.MaxData+1), []byte("/f"))},
	{cmd: 0xB0, pl: cat(wire.AppendI64(nil, -1), u32(1), []byte("/f"))}, // negative offset
	frame(0xB1, 0, 0, 0), // write: short
	{cmd: 0xB1, pl: cat(wire.AppendI64(nil, 0), []byte{0, 9, '/'})}, // write: path past the end
	frame(0xB3), frame(0xB4), frame(0xB5), frame(0xB7), frame(0xB7, 0, 5, 'a'), // empty paths, short rename
	frame(0xB8), frame(0x90, 1), // unknown commands
}

// refusalSession is one authenticated raw connection.
type refusalSession struct {
	conn net.Conn
	r    *bufio.Reader
	sess *wire.Session // nil in text mode
}

func (rs *refusalSession) deadline() { rs.conn.SetDeadline(time.Now().Add(10 * time.Second)) }

// exchange sends one request and renders the reply; "" means the
// connection is gone.
func (rs *refusalSession) exchange(rq refusal) string {
	rs.deadline()
	if rs.sess == nil {
		if _, err := rs.conn.Write([]byte(rq.text)); err != nil {
			return ""
		}
		for n := rq.pad; n > 0; n -= len(padding) {
			if _, err := rs.conn.Write(padding[:min(n, len(padding))]); err != nil {
				return ""
			}
		}
		reply, err := rs.r.ReadString('\n')
		if err != nil {
			return ""
		}
		return fmt.Sprintf("%q", reply)
	}
	if rs.sess.WriteMsg(rq.cmd, rq.pl) != nil {
		return ""
	}
	cmd, pl, err := rs.sess.ReadMsg()
	switch {
	case err != nil:
		return ""
	case cmd == wire.CmdErr:
		se, err := wire.DecodeErrorPayload(pl)
		if err != nil {
			return fmt.Sprintf("undecodable error frame %q", pl)
		}
		return fmt.Sprintf("%q", wire.EncodeError(se, "", scope.ScopeFunction))
	}
	return fmt.Sprintf("%#x %q", cmd, pl)
}

func dialRefusals(t *testing.T, addr string, mode wire.Mode, auth func(*refusalSession)) *refusalSession {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	must(t, err)
	t.Cleanup(func() { conn.Close() })
	rs := &refusalSession{conn: conn, r: bufio.NewReader(conn)}
	rs.deadline()
	if mode == wire.ModeText {
		auth(rs)
		return rs
	}
	rs.sess = wire.NewSession(rs.r, conn, wire.Config{Mode: mode, Secret: []byte("key")})
	t.Cleanup(rs.sess.Release)
	must(t, rs.sess.ClientHandshake())
	return rs
}

// refusalScript runs the requests and returns the transcript.
func refusalScript(t *testing.T, dial func() *refusalSession, probe refusal, script []refusal) string {
	var sb strings.Builder
	rs := dial()
	for _, rq := range script {
		if rs.sess == nil && rq.pad > 0 {
			fmt.Fprintf(&sb, "> %q + %d payload bytes\n", rq.text, rq.pad)
		} else if rs.sess == nil {
			fmt.Fprintf(&sb, "> %q\n", rq.text)
		} else {
			fmt.Fprintf(&sb, "> %#x %q\n", rq.cmd, rq.pl)
		}
		reply := rs.exchange(rq)
		if reply == "" {
			sb.WriteString("< connection closed\n")
			rs = dial()
			continue
		}
		fmt.Fprintf(&sb, "< %s\n", reply)
		if rs.exchange(probe) == "" {
			sb.WriteString("  session dropped\n")
			rs = dial()
		}
	}
	return sb.String()
}

func chirpRefusals(t *testing.T, mode wire.Mode) string {
	fs := vfs.New()
	must(t, fs.WriteFile("/f", []byte("x")))
	srv := chirp.NewServer(&chirp.VFSBackend{FS: fs}, "key")
	addr, err := srv.Listen("127.0.0.1:0")
	must(t, err)
	defer srv.Close()
	cookie := func(rs *refusalSession) {
		if reply := rs.exchange(line(`cookie "key"`)); reply != `"ok\n"` {
			t.Fatalf("cookie: %s", reply)
		}
	}
	dial := func() *refusalSession { return dialRefusals(t, addr, mode, cookie) }
	if mode == wire.ModeText {
		return refusalScript(t, dial, line(`stat "/f"`), chirpTextRefusals)
	}
	return refusalScript(t, dial, frame(0x99, '/', 'f'), chirpFrameRefusals)
}

// remoteioDial starts a shadow over /f and returns how to open an
// authenticated raw session to it.
func remoteioDial(t *testing.T, mode wire.Mode) func() *refusalSession {
	fs := vfs.New()
	must(t, fs.WriteFile("/f", []byte("x")))
	srv := NewServer(fs, []byte("key"))
	srv.Mode = mode
	addr, err := srv.Listen("127.0.0.1:0")
	must(t, err)
	t.Cleanup(srv.Close)
	answer := func(rs *refusalSession) {
		challenge, err := rs.r.ReadString('\n')
		must(t, err)
		nonce, err := hex.DecodeString(strings.TrimSpace(strings.TrimPrefix(challenge, "challenge ")))
		must(t, err)
		m := hmac.New(sha256.New, []byte("key"))
		m.Write(nonce)
		if reply := rs.exchange(line("auth " + hex.EncodeToString(m.Sum(nil)))); reply != `"ok\n"` {
			t.Fatalf("auth: %s", reply)
		}
	}
	return func() *refusalSession { return dialRefusals(t, addr, mode, answer) }
}

func remoteioRefusals(t *testing.T, mode wire.Mode) string {
	dial := remoteioDial(t, mode)
	if mode == wire.ModeText {
		return refusalScript(t, dial, line(`stat "/f"`), remoteioTextRefusals)
	}
	return refusalScript(t, dial, frame(0xB5, '/', 'f'), remoteioFrameRefusals)
}

// TestServerWriteOversizedLengthKeepsSession: a write length that
// parses but exceeds rpc.MaxData is a refusal, not a teardown — the
// framing is intact, so the server drains exactly the declared bytes
// and keeps serving.  A length that does not parse still drops the
// connection: nobody knows how many bytes follow.
func TestServerWriteOversizedLengthKeepsSession(t *testing.T) {
	rs := remoteioDial(t, wire.ModeText)()
	reply := rs.exchange(oversizeWrite(`write "/f" 0 %d`))
	if !strings.Contains(reply, CodeBadRequest) {
		t.Fatalf("oversized write -> %s, want %s", reply, CodeBadRequest)
	}
	if reply := rs.exchange(line(`stat "/f"`)); !strings.HasPrefix(reply, `"ok `) {
		t.Fatalf("session dead after an oversized write: %s", reply)
	}
	if reply := rs.exchange(line(`write "/f" 0 notanumber`)); !strings.Contains(reply, CodeBadRequest) {
		t.Fatalf("unparseable length -> %s", reply)
	}
	if reply := rs.exchange(line(`stat "/f"`)); reply != "" {
		t.Fatalf("connection should be closed after an unframed write, got %s", reply)
	}
}

func TestRefusalTranscripts(t *testing.T) {
	sessions := map[string]func(*testing.T, wire.Mode) string{"chirp": chirpRefusals, "remoteio": remoteioRefusals}
	for name, session := range sessions {
		for _, mode := range []wire.Mode{wire.ModeText, wire.ModeBinary, wire.ModeSecure} {
			t.Run(name+"-"+mode.String(), func(t *testing.T) {
				got := session(t, mode)
				golden := filepath.Join("testdata", name+"-"+mode.String()+".refusals")
				if *updateTranscripts {
					must(t, os.WriteFile(golden, []byte(got), 0o644))
					return
				}
				want, err := os.ReadFile(golden)
				must(t, err)
				if got != string(want) {
					t.Errorf("refusal transcript differs from %s:\n got:\n%s\nwant:\n%s", golden, got, want)
				}
			})
		}
	}
}
