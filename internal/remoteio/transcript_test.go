package remoteio

import (
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"github.com/errscope/grid/internal/chirp"
	"github.com/errscope/grid/internal/vfs"
	"github.com/errscope/grid/internal/wire"
)

// The wire transcripts pin the bytes both protocols put on a socket.
// A scripted session (paths without spaces) runs through a recording
// connection in each mode, and its transcript must equal the committed
// one, which was recorded before the clients and servers moved onto
// the shared transport in internal/rpc: every client Write call (so
// the write/flush pattern — the syscall count — is pinned too), and
// the server's replies as one stream, since how TCP segments them is
// not the protocol's doing.  What is random by design is masked: the
// challenge nonce and its MAC in text mode, and in secure mode every
// byte, leaving the sizes.
//
// Regenerate with `go test ./internal/remoteio -run TestWireTranscripts
// -update` only when a wire change is intended.
var updateTranscripts = flag.Bool("update", false, "rewrite the golden wire transcripts")

type recordingConn struct {
	net.Conn
	mu     sync.Mutex
	writes [][]byte
	read   []byte
}

func (c *recordingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes = append(c.writes, append([]byte(nil), p...))
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *recordingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.read = append(c.read, p[:n]...)
	c.mu.Unlock()
	return n, err
}

var randomHex = regexp.MustCompile(`(challenge|auth) [0-9a-f]+`)

func (c *recordingConn) transcript(mode wire.Mode) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var sb strings.Builder
	for _, w := range c.writes {
		if mode == wire.ModeSecure {
			fmt.Fprintf(&sb, "> %d bytes\n", len(w))
		} else {
			fmt.Fprintf(&sb, "> %q\n", w)
		}
	}
	if mode == wire.ModeSecure {
		fmt.Fprintf(&sb, "< %d bytes\n", len(c.read))
	} else {
		fmt.Fprintf(&sb, "< %q\n", c.read)
	}
	return randomHex.ReplaceAllString(sb.String(), "$1 <random>")
}

func record(t *testing.T, addr string) *recordingConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &recordingConn{Conn: conn}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func stage(t *testing.T) *vfs.FileSystem {
	fs := vfs.New()
	must(t, fs.WriteFile("/data/in", []byte("hello, wire")))
	must(t, fs.WriteFile("/data/ro", []byte("fixed")))
	must(t, fs.SetReadOnly("/data/ro", true))
	return fs
}

func chirpSession(t *testing.T, mode wire.Mode) string {
	srv := chirp.NewServer(&chirp.VFSBackend{FS: stage(t)}, "cookie")
	addr, err := srv.Listen("127.0.0.1:0")
	must(t, err)
	defer srv.Close()
	rc := record(t, addr)
	c, err := chirp.NewClient(rc, "cookie", chirp.DialOptions{Mode: mode})
	must(t, err)

	fd, err := c.Open("/data/in", chirp.FlagRead)
	must(t, err)
	_, err = c.Read(fd, 5)
	must(t, err)
	_, err = c.PRead(fd, 64, 7)
	must(t, err)
	_, err = c.Seek(fd, -4, chirp.SeekEnd)
	must(t, err)
	_, err = c.Read(fd, 64)
	must(t, err)
	must(t, c.CloseFD(fd))
	out, err := c.Open("/data/out", chirp.FlagWrite|chirp.FlagCreate|chirp.FlagAppend)
	must(t, err)
	_, err = c.Write(out, []byte("abc"))
	must(t, err)
	_, err = c.PWrite(out, []byte(strings.Repeat("0123456789abcdef", 512)), 3)
	must(t, err)
	_, err = c.Stat("/data/out")
	must(t, err)
	_, err = c.List("/data")
	must(t, err)
	must(t, c.Rename("/data/out", "/data/moved"))
	must(t, c.Unlink("/data/moved"))
	if _, err := c.Open("/data/absent", chirp.FlagRead); err == nil {
		t.Fatal("open of a missing file succeeded")
	}
	if _, err := c.Read(99, 1); err == nil {
		t.Fatal("read of a bad fd succeeded")
	}
	if _, err := c.Open("/data/ro", chirp.FlagWrite|chirp.FlagTruncate); err == nil {
		t.Fatal("truncating open of a read-only file succeeded")
	}
	must(t, c.Close())
	return rc.transcript(mode)
}

func remoteioSession(t *testing.T, mode wire.Mode) string {
	srv := NewServer(stage(t), []byte("key"))
	srv.Mode = mode
	addr, err := srv.Listen("127.0.0.1:0")
	must(t, err)
	defer srv.Close()
	rc := record(t, addr)
	c, err := NewClient(rc, []byte("key"), DialOptions{Mode: mode})
	must(t, err)

	_, err = c.Read("/data/in", 7, 64)
	must(t, err)
	must(t, c.Create("/data/out"))
	_, err = c.Write("/data/out", 0, []byte(strings.Repeat("0123456789abcdef", 512)))
	must(t, err)
	must(t, c.Truncate("/data/out"))
	_, err = c.Write("/data/out", 2, []byte("xy"))
	must(t, err)
	_, err = c.Stat("/data/out")
	must(t, err)
	_, err = c.List("/data")
	must(t, err)
	must(t, c.Rename("/data/out", "/data/moved"))
	must(t, c.Unlink("/data/moved"))
	if _, err := c.Read("/data/absent", 0, 1); err == nil {
		t.Fatal("read of a missing file succeeded")
	}
	if _, err := c.Write("/data/ro", 0, []byte("no")); err == nil {
		t.Fatal("write to a read-only file succeeded")
	}
	srv.ExpireCredentials()
	if _, err := c.Stat("/data/in"); err == nil {
		t.Fatal("stat with expired credentials succeeded")
	}
	srv.RenewCredentials()
	must(t, c.Close())
	return rc.transcript(mode)
}

func TestWireTranscripts(t *testing.T) {
	sessions := map[string]func(*testing.T, wire.Mode) string{"chirp": chirpSession, "remoteio": remoteioSession}
	for name, session := range sessions {
		for _, mode := range []wire.Mode{wire.ModeText, wire.ModeBinary, wire.ModeSecure} {
			t.Run(name+"-"+mode.String(), func(t *testing.T) {
				got := session(t, mode)
				golden := filepath.Join("testdata", name+"-"+mode.String()+".transcript")
				if *updateTranscripts {
					must(t, os.WriteFile(golden, []byte(got), 0o644))
					return
				}
				want, err := os.ReadFile(golden)
				must(t, err)
				if got != string(want) {
					t.Errorf("wire transcript differs from %s:\n got:\n%s\nwant:\n%s", golden, got, want)
				}
			})
		}
	}
}
