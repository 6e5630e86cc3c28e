package chirp

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/errscope/grid/internal/scope"
	"github.com/errscope/grid/internal/vfs"
	"github.com/errscope/grid/internal/wire"
)

func dialBin(t *testing.T, addr, cookie string, mode wire.Mode) *Client {
	t.Helper()
	c, err := DialMode(addr, cookie, mode)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// testAllOps drives every protocol operation through one client.
func testAllOps(t *testing.T, fs *vfs.FileSystem, c *Client) {
	t.Helper()
	fs.WriteFile("/in", []byte("hello frames"))

	fd, err := c.Open("/in", FlagRead)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := c.Read(fd, 5); err != nil || string(got) != "hello" {
		t.Fatalf("read = %q, %v", got, err)
	}
	if got, err := c.Read(fd, 100); err != nil || string(got) != " frames" {
		t.Fatalf("read2 = %q, %v", got, err)
	}
	if got, err := c.PRead(fd, 5, 6); err != nil || string(got) != "frame" {
		t.Fatalf("pread = %q, %v", got, err)
	}
	if pos, err := c.Seek(fd, 0, SeekSet); err != nil || pos != 0 {
		t.Fatalf("seek = %d, %v", pos, err)
	}
	if err := c.CloseFD(fd); err != nil {
		t.Fatal(err)
	}

	wfd, err := c.Open("/out dir/f 1", FlagWrite|FlagCreate)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := c.Write(wfd, []byte("abc")); err != nil || n != 3 {
		t.Fatalf("write = %d, %v", n, err)
	}
	if n, err := c.PWrite(wfd, []byte("XY"), 1); err != nil || n != 2 {
		t.Fatalf("pwrite = %d, %v", n, err)
	}
	if err := c.CloseFD(wfd); err != nil {
		t.Fatal(err)
	}
	if data, _ := fs.ReadFile("/out dir/f 1"); string(data) != "aXY" {
		t.Fatalf("file = %q", data)
	}

	info, err := c.Stat("/out dir/f 1")
	if err != nil || info.Path != "/out dir/f 1" || info.Size != 3 {
		t.Fatalf("stat = %+v, %v", info, err)
	}
	infos, err := c.List("/")
	if err != nil || len(infos) != 2 {
		t.Fatalf("list = %+v, %v", infos, err)
	}
	if err := c.Rename("/out dir/f 1", "/moved"); err != nil {
		t.Fatal(err)
	}
	if err := c.Unlink("/moved"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stat("/moved"); err == nil {
		t.Fatal("stat after unlink should fail")
	}

	// Explicit errors cross the framed wire with their scope.
	_, err = c.Open("/absent", FlagRead)
	se, ok := scope.AsError(err)
	if !ok || se.Code != CodeFileNotFound || se.Scope != scope.ScopeFile || se.Kind != scope.KindExplicit {
		t.Fatalf("open missing = %v", err)
	}
	// BadFD is function scope, and the framed session survives it.
	_, err = c.Read(999, 4)
	se, ok = scope.AsError(err)
	if !ok || se.Code != CodeBadFD || se.Scope != scope.ScopeFunction {
		t.Fatalf("bad fd = %v", err)
	}
	if _, err := c.Stat("/in"); err != nil {
		t.Fatalf("session did not survive refusal: %v", err)
	}
}

func TestBinaryAllOps(t *testing.T) {
	fs, _, addr := startServer(t, "bin-cookie")
	testAllOps(t, fs, dialBin(t, addr, "bin-cookie", wire.ModeBinary))
}

func TestSecureAllOps(t *testing.T) {
	fs, _, addr := startServer(t, "sec-cookie")
	testAllOps(t, fs, dialBin(t, addr, "sec-cookie", wire.ModeSecure))
}

func TestBinaryBadCookie(t *testing.T) {
	for _, mode := range []wire.Mode{wire.ModeBinary, wire.ModeSecure} {
		_, _, addr := startServer(t, "right")
		_, err := DialMode(addr, "wrong", mode)
		if err == nil {
			t.Fatalf("%s: bad cookie accepted", mode)
		}
		se, ok := scope.AsError(err)
		if !ok || se.Code != CodeNotAuthed || se.Scope != scope.ScopeProcess || se.Kind != scope.KindExplicit {
			t.Errorf("%s: bad cookie error = %v", mode, err)
		}
	}
}

// TestHostileCookieRejectedAtDial covers the injection surface: a
// cookie with a newline would terminate the text frame early and a
// quote would splice the argument.  Both are refused before any bytes
// go out.
func TestHostileCookieRejectedAtDial(t *testing.T) {
	_, _, addr := startServer(t, "good")
	for _, cookie := range []string{"evil\nquit", "a\rb", `sp"lice`, "trail\n"} {
		for _, mode := range []wire.Mode{wire.ModeText, wire.ModeBinary, wire.ModeSecure} {
			_, err := DialOpts(addr, cookie, DialOptions{Mode: mode})
			se, ok := scope.AsError(err)
			if !ok || se.Code != CodeBadRequest || se.Scope != scope.ScopeFunction {
				t.Errorf("mode %s cookie %q: err = %v", mode, cookie, err)
			}
		}
	}
}

// silentServer accepts connections, answers the text cookie exchange,
// then never responds again — the hung-proxy shape that used to stall
// the client forever.
func silentServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				r := bufio.NewReader(conn)
				line, err := r.ReadString('\n')
				if err != nil || !strings.HasPrefix(line, "cookie ") {
					return
				}
				fmt.Fprint(conn, "ok\n")
				// Swallow everything else, answer nothing.
				buf := make([]byte, 1024)
				for {
					if _, err := conn.Read(buf); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String()
}

func TestSilentServerRequestTimeout(t *testing.T) {
	addr := silentServer(t)
	c, err := DialOpts(addr, "k", DialOptions{IOTimeout: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	_, err = c.Open("/x", FlagRead)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("request took %v, deadline did not bound it", elapsed)
	}
	se, ok := scope.AsError(err)
	if !ok {
		t.Fatalf("unscoped: %v", err)
	}
	if se.Code != CodeRequestTimeout || se.Scope != scope.ScopeNetwork || se.Kind != scope.KindEscaping {
		t.Fatalf("timeout error = %+v", se)
	}
	// The failure is sticky: the connection is dead, later calls
	// return the same scoped error without blocking.
	if _, err2 := c.Read(3, 1); err2 == nil {
		t.Fatal("dead client answered")
	}
}

func TestBinaryGetdirPathsWithSpaces(t *testing.T) {
	fs, _, addr := startServer(t, "k")
	fs.WriteFile("/dir/a  b", []byte("1"))
	fs.WriteFile("/dir/c   d", []byte("22"))
	c := dialBin(t, addr, "k", wire.ModeBinary)
	infos, err := c.List("/dir/")
	if err != nil || len(infos) != 2 {
		t.Fatalf("list = %+v, %v", infos, err)
	}
	// Consecutive spaces survive the binary encoding exactly.
	if infos[0].Path != "/dir/a  b" || infos[1].Path != "/dir/c   d" {
		t.Fatalf("paths = %q, %q", infos[0].Path, infos[1].Path)
	}
}

// TestSecureKeyExpiryIsLocalResource exhausts a tiny client-side key
// budget and checks the classification: the transport is fine, the
// session's credential is spent — local-resource scope, like an
// expired proxy certificate.
func TestSecureKeyExpiryIsLocalResource(t *testing.T) {
	fs, _, addr := startServer(t, "k")
	fs.WriteFile("/in", []byte("0123456789"))
	c, err := DialOpts(addr, "k", DialOptions{Mode: wire.ModeSecure, RekeyAfter: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fd, err := c.Open("/in", FlagRead) // sealed frames: proof(1) open(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(fd, 4); err != nil { // (3)
		t.Fatal(err)
	}
	if _, err := c.Read(fd, 4); err != nil { // (4) budget spent
		t.Fatal(err)
	}
	_, err = c.Read(fd, 4) // (5) refused locally before sending
	se, ok := scope.AsError(err)
	if !ok {
		t.Fatalf("unscoped: %v", err)
	}
	if se.Code != wire.CodeKeyExpired || se.Scope != scope.ScopeLocalResource || se.Kind != scope.KindEscaping {
		t.Fatalf("key expiry = %+v", se)
	}
}
