package chirp

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"github.com/errscope/grid/internal/scope"
	"github.com/errscope/grid/internal/vfs"
)

// startServer brings up a proxy over a fresh vfs on an ephemeral
// loopback port.
func startServer(t *testing.T, secret string) (*vfs.FileSystem, *Server, string) {
	t.Helper()
	fs := vfs.New()
	srv := NewServer(&VFSBackend{FS: fs}, secret)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return fs, srv, addr
}

func dial(t *testing.T, addr, cookie string) *Client {
	t.Helper()
	c, err := Dial(addr, cookie)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestAuthentication(t *testing.T) {
	_, _, addr := startServer(t, "s3cret")
	// Correct cookie works.
	c := dial(t, addr, "s3cret")
	if _, err := c.Open("/x", FlagWrite|FlagCreate); err != nil {
		t.Fatal(err)
	}
	// Wrong cookie is refused with process scope.
	_, err := Dial(addr, "wrong")
	if err == nil {
		t.Fatal("bad cookie accepted")
	}
	se, ok := scope.AsError(err)
	if !ok || se.Code != CodeNotAuthed || se.Scope != scope.ScopeProcess {
		t.Errorf("bad cookie error = %v", err)
	}
}

func TestOpenReadWrite(t *testing.T) {
	fs, _, addr := startServer(t, "k")
	fs.WriteFile("/in", []byte("hello chirp"))
	c := dial(t, addr, "k")

	fd, err := c.Open("/in", FlagRead)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Read(fd, 5)
	if err != nil || string(got) != "hello" {
		t.Fatalf("read = %q, %v", got, err)
	}
	// Sequential position advances.
	got, err = c.Read(fd, 100)
	if err != nil || string(got) != " chirp" {
		t.Fatalf("read2 = %q, %v", got, err)
	}
	// EOF is an explicit file-scope error.
	_, err = c.Read(fd, 1)
	se, _ := scope.AsError(err)
	if se == nil || se.Code != CodeEndOfFile || se.Scope != scope.ScopeFile {
		t.Fatalf("eof = %v", err)
	}
	if err := c.CloseFD(fd); err != nil {
		t.Fatal(err)
	}

	// Write a new file.
	wfd, err := c.Open("/out", FlagWrite|FlagCreate)
	if err != nil {
		t.Fatal(err)
	}
	n, err := c.Write(wfd, []byte("abc"))
	if err != nil || n != 3 {
		t.Fatalf("write = %d, %v", n, err)
	}
	n, err = c.Write(wfd, []byte("def"))
	if err != nil || n != 3 {
		t.Fatalf("write2 = %d, %v", n, err)
	}
	c.CloseFD(wfd)
	data, err := fs.ReadFile("/out")
	if err != nil || string(data) != "abcdef" {
		t.Fatalf("server file = %q, %v", data, err)
	}
}

func TestPReadPWriteSeek(t *testing.T) {
	fs, _, addr := startServer(t, "k")
	fs.WriteFile("/f", []byte("0123456789"))
	c := dial(t, addr, "k")
	fd, err := c.Open("/f", FlagRead|FlagWrite)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.PRead(fd, 3, 4)
	if err != nil || string(got) != "456" {
		t.Fatalf("pread = %q, %v", got, err)
	}
	// PRead does not move the sequential position.
	got, _ = c.Read(fd, 2)
	if string(got) != "01" {
		t.Fatalf("read after pread = %q", got)
	}
	if _, err := c.PWrite(fd, []byte("XY"), 8); err != nil {
		t.Fatal(err)
	}
	pos, err := c.Seek(fd, -4, SeekEnd)
	if err != nil || pos != 6 {
		t.Fatalf("seek = %d, %v", pos, err)
	}
	got, _ = c.Read(fd, 4)
	if string(got) != "67XY" {
		t.Fatalf("read after seek = %q", got)
	}
	pos, err = c.Seek(fd, 1, SeekSet)
	if err != nil || pos != 1 {
		t.Fatalf("seek set = %d, %v", pos, err)
	}
	pos, err = c.Seek(fd, 2, SeekCur)
	if err != nil || pos != 3 {
		t.Fatalf("seek cur = %d, %v", pos, err)
	}
	if _, err = c.Seek(fd, -100, SeekSet); err == nil {
		t.Error("negative seek should fail")
	}
	if _, err = c.Seek(fd, 0, 9); err == nil {
		t.Error("bad whence should fail")
	}
}

func TestAppendFlag(t *testing.T) {
	fs, _, addr := startServer(t, "k")
	fs.WriteFile("/log", []byte("line1\n"))
	c := dial(t, addr, "k")
	fd, err := c.Open("/log", FlagWrite|FlagAppend)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(fd, []byte("line2\n")); err != nil {
		t.Fatal(err)
	}
	data, _ := fs.ReadFile("/log")
	if string(data) != "line1\nline2\n" {
		t.Errorf("data = %q", data)
	}
}

func TestTruncateFlag(t *testing.T) {
	fs, _, addr := startServer(t, "k")
	fs.WriteFile("/f", []byte("old content"))
	c := dial(t, addr, "k")
	fd, err := c.Open("/f", FlagWrite|FlagTruncate)
	if err != nil {
		t.Fatal(err)
	}
	c.Write(fd, []byte("new"))
	data, _ := fs.ReadFile("/f")
	if string(data) != "new" {
		t.Errorf("data = %q", data)
	}
}

func TestExplicitErrorsCrossTheWireWithScope(t *testing.T) {
	fs, _, addr := startServer(t, "k")
	c := dial(t, addr, "k")

	// FileNotFound: file scope.
	_, err := c.Open("/missing", FlagRead)
	se, _ := scope.AsError(err)
	if se == nil || se.Code != CodeFileNotFound || se.Scope != scope.ScopeFile {
		t.Errorf("open missing = %v", err)
	}

	// DiskFull from quota: file scope across the wire.
	fs.SetQuota(4)
	fd, err := c.Open("/small", FlagWrite|FlagCreate)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Write(fd, []byte("too big for quota"))
	se, _ = scope.AsError(err)
	if se == nil || se.Code != vfs.CodeDiskFull || se.Scope != scope.ScopeFile {
		t.Errorf("disk full = %v", err)
	}

	// Offline backing store: local-resource scope crosses the wire.
	fs.SetOffline(true)
	_, err = c.Open("/other", FlagRead)
	se, _ = scope.AsError(err)
	if se == nil || se.Code != vfs.CodeOffline || se.Scope != scope.ScopeLocalResource {
		t.Errorf("offline = %v", err)
	}
	fs.SetOffline(false)

	// Access-mode violations.
	rofd, _ := c.Open("/small", FlagRead)
	_, err = c.Write(rofd, []byte("x"))
	se, _ = scope.AsError(err)
	if se == nil || se.Code != CodeAccessDenied {
		t.Errorf("write to read-only fd = %v", err)
	}
	_, err = c.Read(fd, 1)
	se, _ = scope.AsError(err)
	if se == nil || se.Code != CodeAccessDenied {
		t.Errorf("read from write-only fd = %v", err)
	}

	// Bad fd.
	err = c.CloseFD(99)
	se, _ = scope.AsError(err)
	if se == nil || se.Code != CodeBadFD || se.Scope != scope.ScopeFunction {
		t.Errorf("bad fd = %v", err)
	}
}

func TestUnlinkRenameStat(t *testing.T) {
	fs, _, addr := startServer(t, "k")
	fs.WriteFile("/a", []byte("abc"))
	c := dial(t, addr, "k")

	info, err := c.Stat("/a")
	if err != nil || info.Size != 3 || info.Path != "/a" {
		t.Fatalf("stat = %+v, %v", info, err)
	}
	if err := c.Rename("/a", "/b"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stat("/a"); err == nil {
		t.Error("stat of renamed-away file should fail")
	}
	if err := c.Unlink("/b"); err != nil {
		t.Fatal(err)
	}
	err = c.Unlink("/b")
	se, _ := scope.AsError(err)
	if se == nil || se.Code != CodeFileNotFound {
		t.Errorf("double unlink = %v", err)
	}
}

func TestClientErrorsConformToContract(t *testing.T) {
	fs, _, addr := startServer(t, "k")
	fs.WriteFile("/f", []byte("x"))
	c := dial(t, addr, "k")
	contract := Contract()
	var errs []error
	_, e := c.Open("/missing", FlagRead)
	errs = append(errs, e)
	errs = append(errs, c.Unlink("/none"))
	errs = append(errs, c.CloseFD(42))
	for _, err := range errs {
		if err == nil {
			t.Fatal("want error")
		}
		if v := contract.Violations(err); v != "" {
			t.Errorf("violation: %s", v)
		}
	}
}

func TestServerSurvivesGarbage(t *testing.T) {
	fs, _, addr := startServer(t, "k")
	fs.WriteFile("/f", []byte("x"))
	// Throw protocol garbage at the server, then confirm a fresh
	// legitimate session still works.
	garbage := []string{
		"\n",
		"bogusverb\n",
		"open\n",
		"open \"x\n",
		"read notanumber 5\n",
		"write 3 -1\n",
		"lseek 3 a b\n",
		"cookie\n",
	}
	for _, g := range garbage {
		func() {
			raw, err := dialRaw(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer raw.close()
			if resp := raw.send("cookie \"k\"\n"); !strings.HasPrefix(resp, "ok") {
				t.Fatalf("auth: %q", resp)
			}
			raw.conn.Write([]byte(g))
		}()
	}
	time.Sleep(20 * time.Millisecond)
	c := dial(t, addr, "k")
	if _, err := c.Stat("/f"); err != nil {
		t.Fatalf("server unusable after garbage: %v", err)
	}
}

func TestUnauthenticatedOpsRefused(t *testing.T) {
	_, _, addr := startServer(t, "k")
	// Dial raw: send an op before the cookie.
	c := &Client{}
	_ = c
	conn, err := Dial(addr, "k") // authenticated, used as transport template
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	// Hand-rolled unauthenticated session.
	raw, err := dialRaw(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.close()
	resp := raw.send("open \"/f\" r\n")
	if !strings.Contains(resp, CodeNotAuthed) {
		t.Errorf("resp = %q", resp)
	}
}

func TestConcurrentClients(t *testing.T) {
	fs, _, addr := startServer(t, "k")
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			c, err := Dial(addr, "k")
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			path := "/file" + string(rune('a'+n))
			fd, err := c.Open(path, FlagWrite|FlagCreate)
			if err != nil {
				errCh <- err
				return
			}
			for j := 0; j < 50; j++ {
				if _, err := c.Write(fd, bytes.Repeat([]byte{byte(n)}, 10)); err != nil {
					errCh <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	list, _ := fs.List("")
	if len(list) != 8 {
		t.Errorf("files = %d", len(list))
	}
	for _, info := range list {
		if info.Size != 500 {
			t.Errorf("%s size = %d", info.Path, info.Size)
		}
	}
}

func TestWireDataRoundTripProperty(t *testing.T) {
	fs, _, addr := startServer(t, "k")
	_ = fs
	c := dial(t, addr, "k")
	fd, err := c.Open("/prop", FlagRead|FlagWrite|FlagCreate)
	if err != nil {
		t.Fatal(err)
	}
	prop := func(data []byte) bool {
		if len(data) == 0 {
			return true
		}
		if _, err := c.PWrite(fd, data, 0); err != nil {
			return false
		}
		got, err := c.PRead(fd, len(data), 0)
		if err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestOpenFlagsRoundTrip(t *testing.T) {
	prop := func(raw uint8) bool {
		f := OpenFlags(raw) & (FlagRead | FlagWrite | FlagCreate | FlagTruncate | FlagAppend)
		parsed, err := ParseOpenFlags(f.String())
		return err == nil && parsed == f
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
	if _, err := ParseOpenFlags("z"); err == nil {
		t.Error("bad flag should fail")
	}
}
