package javaio

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"github.com/errscope/grid/internal/chirp"
	"github.com/errscope/grid/internal/scope"
	"github.com/errscope/grid/internal/vfs"
)

func vfsLib(t *testing.T) (*vfs.FileSystem, *Library) {
	t.Helper()
	fs := vfs.New()
	return fs, New(&VFSTransport{FS: fs, AutoCreate: true})
}

func TestReadWriteThroughLibrary(t *testing.T) {
	fs, lib := vfsLib(t)
	fs.WriteFile("/in", []byte("abcdef"))
	data, err := lib.Read("/in", 2, 3)
	if err != nil || string(data) != "cde" {
		t.Fatalf("read = %q, %v", data, err)
	}
	n, err := lib.Write("/out", 0, []byte("xyz"))
	if err != nil || n != 3 {
		t.Fatalf("write = %d, %v", n, err)
	}
	out, _ := fs.ReadFile("/out")
	if string(out) != "xyz" {
		t.Errorf("out = %q", out)
	}
}

func TestExplicitFileErrorsBecomeJavaExceptions(t *testing.T) {
	fs, lib := vfsLib(t)

	_, err := lib.Read("/missing", 0, 1)
	se, _ := scope.AsError(err)
	if se == nil || se.Code != ExcFileNotFound || se.Scope != scope.ScopeProgram || se.Kind != scope.KindExplicit {
		t.Errorf("FileNotFound conversion = %v", err)
	}

	fs.SetQuota(2)
	fs.WriteFile("/f", []byte("ab"))
	lib2 := New(&VFSTransport{FS: fs})
	_, err = lib2.Write("/f", 0, []byte("abcdef"))
	se, _ = scope.AsError(err)
	if se == nil || se.Code != ExcDiskFull || se.Scope != scope.ScopeProgram {
		t.Errorf("DiskFull conversion = %v", err)
	}

	fs.SetQuota(0)
	fs.SetReadOnly("/f", true)
	_, err = lib2.Write("/f", 0, []byte("x"))
	se, _ = scope.AsError(err)
	if se == nil || se.Code != ExcAccessDenied {
		t.Errorf("AccessDenied conversion = %v", err)
	}

	_, err = lib2.Read("/f", 100, 1)
	se, _ = scope.AsError(err)
	if se == nil || se.Code != ExcEOF {
		t.Errorf("EOF conversion = %v", err)
	}
}

func TestEnvironmentalErrorsEscape(t *testing.T) {
	fs, lib := vfsLib(t)
	fs.WriteFile("/f", []byte("x"))
	fs.SetOffline(true)
	_, err := lib.Read("/f", 0, 1)
	se, _ := scope.AsError(err)
	if se == nil {
		t.Fatalf("err = %v", err)
	}
	if se.Kind != scope.KindEscaping {
		t.Errorf("offline must escape, kind = %v", se.Kind)
	}
	if se.Code != ErrHomeFSOffline {
		t.Errorf("code = %q", se.Code)
	}
	if se.Scope != scope.ScopeLocalResource {
		t.Errorf("scope = %v", se.Scope)
	}
	// Principle 1: the converted failure is never presented as data.
	if data, _ := lib.Read("/f", 0, 1); data != nil {
		t.Error("failed read returned data")
	}
}

func TestForeignExplicitErrorMustEscape(t *testing.T) {
	// An explicit error code the I/O interface does not declare —
	// whatever its scope — must escape, not masquerade (Principle 4).
	tr := TransportFunc{
		ReadFn: func(string, int64, int) ([]byte, error) {
			return nil, scope.New(scope.ScopeFile, "WeirdVendorError", "???")
		},
	}
	lib := New(tr)
	_, err := lib.Read("/f", 0, 1)
	se, _ := scope.AsError(err)
	if se == nil || se.Kind != scope.KindEscaping {
		t.Fatalf("foreign explicit error = %v", err)
	}
	if !se.Scope.Contains(scope.ScopeProcess) {
		t.Errorf("scope = %v", se.Scope)
	}
}

func TestPlainErrorEscapes(t *testing.T) {
	tr := TransportFunc{
		ReadFn: func(string, int64, int) ([]byte, error) {
			return nil, errors.New("socket exploded")
		},
	}
	_, err := New(tr).Read("/f", 0, 1)
	se, _ := scope.AsError(err)
	if se == nil || se.Kind != scope.KindEscaping {
		t.Fatalf("plain error = %v", err)
	}
}

func TestGenericModeFlattensEverything(t *testing.T) {
	// The ablation: generic mode converts even an offline file
	// system into an explicit program-scope exception — the flawed
	// original design whose consequences the pool experiment
	// measures.
	fs := vfs.New()
	fs.WriteFile("/f", []byte("x"))
	fs.SetOffline(true)
	lib := NewGeneric(&VFSTransport{FS: fs})
	_, err := lib.Read("/f", 0, 1)
	se, _ := scope.AsError(err)
	if se == nil {
		t.Fatalf("err = %v", err)
	}
	if se.Kind != scope.KindExplicit || se.Scope != scope.ScopeProgram {
		t.Errorf("generic mode should flatten: %+v", se)
	}
	if se.Code != ExcIOException {
		t.Errorf("code = %q", se.Code)
	}
	// Known file errors keep their specific names even in generic
	// mode, as the original system did.
	fs.SetOffline(false)
	_, err = lib.Read("/missing", 0, 1)
	se, _ = scope.AsError(err)
	if se.Code != ExcFileNotFound || se.Scope != scope.ScopeProgram {
		t.Errorf("generic FileNotFound = %+v", se)
	}
}

func TestStreams(t *testing.T) {
	fs, lib := vfsLib(t)
	content := bytes.Repeat([]byte("stream data "), 1000)
	fs.WriteFile("/in", content)

	in := lib.OpenInput("/in")
	got, err := io.ReadAll(in)
	if err != nil || !bytes.Equal(got, content) {
		t.Fatalf("io.ReadAll: %d bytes, %v", len(got), err)
	}

	out := lib.OpenOutput("/out")
	n, err := out.Write([]byte("hello "))
	if err != nil || n != 6 {
		t.Fatalf("write = %d, %v", n, err)
	}
	if _, err := out.Write([]byte("world")); err != nil {
		t.Fatal(err)
	}
	data, _ := fs.ReadFile("/out")
	if string(data) != "hello world" {
		t.Errorf("out = %q", data)
	}

	// io.Copy through both streams.
	n64, err := io.Copy(lib.OpenOutput("/copy"), lib.OpenInput("/in"))
	if err != nil || n64 != int64(len(content)) {
		t.Fatalf("copy = %d, %v", n64, err)
	}
	copied, _ := fs.ReadFile("/copy")
	if !bytes.Equal(copied, content) {
		t.Error("copy mismatch")
	}
}

func TestInputStreamEOFConvention(t *testing.T) {
	fs, lib := vfsLib(t)
	fs.WriteFile("/f", []byte("ab"))
	in := lib.OpenInput("/f")
	buf := make([]byte, 10)
	n, err := in.Read(buf)
	if n != 2 || err != nil {
		t.Fatalf("read = %d, %v", n, err)
	}
	if _, err := in.Read(buf); err != io.EOF {
		t.Fatalf("want io.EOF, got %v", err)
	}
	// Zero-length read is a no-op.
	if n, err := in.Read(nil); n != 0 || err != nil {
		t.Errorf("empty read = %d, %v", n, err)
	}
}

func TestInputStreamErrorPassthrough(t *testing.T) {
	fs, lib := vfsLib(t)
	fs.WriteFile("/f", []byte("abcdef"))
	fs.SetOffline(true)
	in := lib.OpenInput("/f")
	_, err := in.Read(make([]byte, 4))
	se, _ := scope.AsError(err)
	if se == nil || se.Kind != scope.KindEscaping {
		t.Fatalf("stream error = %v", err)
	}
}

// TestChirpTransportEndToEnd runs the library over a real Chirp
// session.
func TestChirpTransportEndToEnd(t *testing.T) {
	fs := vfs.New()
	fs.WriteFile("/in", []byte("over the wire"))
	srv := chirp.NewServer(&chirp.VFSBackend{FS: fs}, "ck")
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := chirp.Dial(addr, "ck")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	tr := NewChirpTransport(client)
	defer tr.Close()
	lib := New(tr)

	in := lib.OpenInput("/in")
	data, err := io.ReadAll(in)
	if err != nil || string(data) != "over the wire" {
		t.Fatalf("io.ReadAll = %q, %v", data, err)
	}

	out := lib.OpenOutput("/out")
	if _, err := out.Write([]byte("reply")); err != nil {
		t.Fatal(err)
	}
	got, _ := fs.ReadFile("/out")
	if string(got) != "reply" {
		t.Errorf("out = %q", got)
	}

	// Missing file over the wire converts to FileNotFoundException.
	_, err = lib.Read("/nope", 0, 1)
	se, _ := scope.AsError(err)
	if se == nil || se.Code != ExcFileNotFound {
		t.Errorf("missing over wire = %v", err)
	}

	// Proxy death escapes with remote... scope preserved by Convert.
	srv.Close()
	_, err = lib.Read("/in", 0, 1)
	se, _ = scope.AsError(err)
	if se == nil || se.Kind != scope.KindEscaping {
		t.Fatalf("proxy death = %v", err)
	}
	if se.Code != ErrConnectionTimedOut {
		t.Errorf("code = %q", se.Code)
	}
}
