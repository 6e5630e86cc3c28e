package vfs

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"testing/quick"

	"github.com/errscope/grid/internal/scope"
)

func wantCode(t *testing.T, err error, code string, s scope.Scope) {
	t.Helper()
	se, ok := scope.AsError(err)
	if !ok {
		t.Fatalf("error %v is not scoped", err)
	}
	if se.Code != code || se.Scope != s {
		t.Fatalf("error = %s/%v, want %s/%v (%v)", se.Code, se.Scope, code, s, err)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	fs := New()
	data := []byte("hello grid")
	if err := fs.WriteFile("/data/in.txt", data); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("data/in.txt") // path canonicalization
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Errorf("got %q", got)
	}
	if fs.Used() != int64(len(data)) {
		t.Errorf("used = %d", fs.Used())
	}
}

func TestReadMissing(t *testing.T) {
	fs := New()
	_, err := fs.ReadFile("/nope")
	wantCode(t, err, CodeFileNotFound, scope.ScopeFile)
}

func TestPathValidation(t *testing.T) {
	fs := New()
	for _, p := range []string{"", "/", "..", "a/../../b", "/./."} {
		if err := fs.WriteFile(p, nil); err == nil {
			t.Errorf("WriteFile(%q) should fail", p)
		} else {
			wantCode(t, err, CodeBadArgument, scope.ScopeFunction)
		}
	}
	// Dot segments that stay inside the namespace are fine.
	if err := fs.WriteFile("/a/./b", []byte("x")); err != nil {
		t.Errorf("WriteFile(/a/./b): %v", err)
	}
	if _, err := fs.ReadFile("a/b"); err != nil {
		t.Errorf("canonical read: %v", err)
	}
}

func TestQuota(t *testing.T) {
	fs := New()
	fs.SetQuota(10)
	if err := fs.WriteFile("/a", make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	err := fs.WriteFile("/b", make([]byte, 8))
	wantCode(t, err, CodeDiskFull, scope.ScopeFile)
	// Replacing a file reuses its space.
	if err := fs.WriteFile("/a", make([]byte, 10)); err != nil {
		t.Errorf("replace within quota: %v", err)
	}
	// Removing frees space.
	if err := fs.Unlink("/a"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/b", make([]byte, 8)); err != nil {
		t.Errorf("after unlink: %v", err)
	}
	if fs.Used() != 8 {
		t.Errorf("used = %d", fs.Used())
	}
	fs.SetQuota(0)
	if err := fs.WriteFile("/big", make([]byte, 1<<20)); err != nil {
		t.Errorf("unlimited: %v", err)
	}
}

func TestOffline(t *testing.T) {
	fs := New()
	if err := fs.WriteFile("/a", []byte("x")); err != nil {
		t.Fatal(err)
	}
	fs.SetOffline(true)
	if !fs.Offline() {
		t.Error("Offline()")
	}
	_, err := fs.ReadFile("/a")
	wantCode(t, err, CodeOffline, scope.ScopeLocalResource)
	err = fs.WriteFile("/b", nil)
	wantCode(t, err, CodeOffline, scope.ScopeLocalResource)
	_, err = fs.Stat("/a")
	wantCode(t, err, CodeOffline, scope.ScopeLocalResource)
	fs.SetOffline(false)
	if _, err := fs.ReadFile("/a"); err != nil {
		t.Errorf("back online: %v", err)
	}
}

func TestReadWriteAt(t *testing.T) {
	fs := New()
	if err := fs.WriteFile("/f", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadAt("/f", 3, 4)
	if err != nil || string(got) != "3456" {
		t.Fatalf("ReadAt = %q, %v", got, err)
	}
	// Short read at tail.
	got, err = fs.ReadAt("/f", 8, 10)
	if err != nil || string(got) != "89" {
		t.Fatalf("tail ReadAt = %q, %v", got, err)
	}
	// Past end.
	_, err = fs.ReadAt("/f", 10, 1)
	wantCode(t, err, CodeEndOfFile, scope.ScopeFile)
	// Negative arguments.
	_, err = fs.ReadAt("/f", -1, 1)
	wantCode(t, err, CodeBadArgument, scope.ScopeFunction)

	n, err := fs.WriteAt("/f", 5, []byte("ABC"))
	if err != nil || n != 3 {
		t.Fatalf("WriteAt = %d, %v", n, err)
	}
	data, _ := fs.ReadFile("/f")
	if string(data) != "01234ABC89" {
		t.Errorf("data = %q", data)
	}
	// Extension past end.
	if _, err := fs.WriteAt("/f", 12, []byte("ZZ")); err != nil {
		t.Fatal(err)
	}
	data, _ = fs.ReadFile("/f")
	if len(data) != 14 || string(data[12:]) != "ZZ" || data[10] != 0 {
		t.Errorf("extended = %q", data)
	}
	if fs.Used() != 14 {
		t.Errorf("used = %d", fs.Used())
	}
	// WriteAt to missing file.
	_, err = fs.WriteAt("/missing", 0, []byte("x"))
	wantCode(t, err, CodeFileNotFound, scope.ScopeFile)
}

func TestWriteAtQuota(t *testing.T) {
	fs := New()
	fs.SetQuota(10)
	if err := fs.WriteFile("/f", make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	// In-place write is free.
	if _, err := fs.WriteAt("/f", 0, make([]byte, 8)); err != nil {
		t.Errorf("in-place: %v", err)
	}
	// Growth beyond quota fails.
	_, err := fs.WriteAt("/f", 8, make([]byte, 8))
	wantCode(t, err, CodeDiskFull, scope.ScopeFile)
}

// TestWriteAtPastFileLimit: with no quota, a write far past the end
// is refused at file scope instead of allocating the gap — at the
// largest offsets the gap's length used to overflow and panic.
func TestWriteAtPastFileLimit(t *testing.T) {
	fs := New()
	if err := fs.WriteFile("/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	for _, off := range []int64{maxFileSize, 1 << 40, 0x3000000000200005, 1<<63 - 2} {
		_, err := fs.WriteAt("/f", off, []byte("ab"))
		wantCode(t, err, CodeDiskFull, scope.ScopeFile)
	}
	if info, _ := fs.Stat("/f"); info.Size != 1 {
		t.Errorf("size after refused writes = %d, want 1", info.Size)
	}
}

func TestReadOnly(t *testing.T) {
	fs := New()
	fs.WriteFile("/ro", []byte("x"))
	if err := fs.SetReadOnly("/ro", true); err != nil {
		t.Fatal(err)
	}
	err := fs.WriteFile("/ro", []byte("y"))
	wantCode(t, err, CodeAccessDenied, scope.ScopeFile)
	_, err = fs.WriteAt("/ro", 0, []byte("y"))
	wantCode(t, err, CodeAccessDenied, scope.ScopeFile)
	err = fs.Unlink("/ro")
	wantCode(t, err, CodeAccessDenied, scope.ScopeFile)
	if err := fs.SetReadOnly("/ro", false); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unlink("/ro"); err != nil {
		t.Errorf("after unprotect: %v", err)
	}
	if err := fs.SetReadOnly("/missing", true); err == nil {
		t.Error("SetReadOnly missing should fail")
	}
}

func TestCreateUnlinkRename(t *testing.T) {
	fs := New()
	if err := fs.Create("/new"); err != nil {
		t.Fatal(err)
	}
	err := fs.Create("/new")
	wantCode(t, err, CodeFileExists, scope.ScopeFile)
	if err := fs.WriteFile("/new", []byte("abc")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("/new", "/renamed"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFile("/new"); err == nil {
		t.Error("old name should be gone")
	}
	data, err := fs.ReadFile("/renamed")
	if err != nil || string(data) != "abc" {
		t.Errorf("renamed = %q, %v", data, err)
	}
	// Rename over existing replaces and adjusts usage.
	fs.WriteFile("/other", []byte("0123456789"))
	if err := fs.Rename("/renamed", "/other"); err != nil {
		t.Fatal(err)
	}
	if fs.Used() != 3 {
		t.Errorf("used = %d", fs.Used())
	}
	if err := fs.Rename("/ghost", "/x"); err == nil {
		t.Error("rename of missing should fail")
	}
	err = fs.Unlink("/ghost")
	wantCode(t, err, CodeFileNotFound, scope.ScopeFile)
}

func TestStatAndList(t *testing.T) {
	fs := New()
	fs.WriteFile("/dir/a", []byte("aa"))
	fs.WriteFile("/dir/b", []byte("b"))
	fs.WriteFile("/dirx", []byte("x"))
	fs.WriteFile("/top", []byte("t"))
	info, err := fs.Stat("/dir/a")
	if err != nil || info.Size != 2 || info.Path != "/dir/a" {
		t.Errorf("stat = %+v, %v", info, err)
	}
	list, err := fs.List("/dir")
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0].Path != "/dir/a" || list[1].Path != "/dir/b" {
		t.Errorf("list = %+v", list)
	}
	all, _ := fs.List("")
	if len(all) != 4 {
		t.Errorf("all = %+v", all)
	}
	root, _ := fs.List("/")
	if len(root) != 4 {
		t.Errorf("root = %+v", root)
	}
	none, _ := fs.List("/nothing")
	if len(none) != 0 {
		t.Errorf("none = %+v", none)
	}
}

func TestCorruptionIsImplicit(t *testing.T) {
	fs := New()
	orig := bytes.Repeat([]byte("abcdefgh"), 32) // 256 bytes
	fs.WriteFile("/f", orig)
	fs.CorruptNextReads("/f", 1)
	got, err := fs.ReadFile("/f")
	if err != nil {
		t.Fatalf("corrupted read must not error (it is implicit): %v", err)
	}
	if bytes.Equal(got, orig) {
		t.Fatal("data should be corrupted")
	}
	// The corruption budget is consumed.
	got2, err := fs.ReadFile("/f")
	if err != nil || !bytes.Equal(got2, orig) {
		t.Error("second read should be clean")
	}
	// ReadAt consumes corruption too.
	fs.CorruptNextReads("/f", 1)
	part, err := fs.ReadAt("/f", 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(part, orig[:64]) {
		t.Error("ReadAt should observe corruption")
	}
}

func TestVFSContractConformance(t *testing.T) {
	// Every error the file system returns must conform to its
	// declared contract (Principle 4).
	fs := New()
	fs.SetQuota(4)
	fs.WriteFile("/ro", []byte("x"))
	fs.SetReadOnly("/ro", true)
	contract := Contract()
	errs := []error{}
	_, e1 := fs.ReadFile("/missing")
	errs = append(errs, e1)
	errs = append(errs, fs.WriteFile("/ro", []byte("y")))
	errs = append(errs, fs.WriteFile("/big", make([]byte, 100)))
	_, e2 := fs.ReadAt("/ro", 5, 1)
	errs = append(errs, e2)
	fs.SetOffline(true)
	_, e3 := fs.ReadFile("/ro")
	errs = append(errs, e3)
	for _, err := range errs {
		if err == nil {
			t.Fatal("expected error")
		}
		if v := contract.Violations(err); v != "" {
			t.Errorf("contract violation: %s", v)
		}
	}
}

func TestConcurrentAccess(t *testing.T) {
	fs := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			path := "/f" + string(rune('a'+n))
			for j := 0; j < 100; j++ {
				if err := fs.WriteFile(path, []byte{byte(j)}); err != nil {
					t.Errorf("write: %v", err)
					return
				}
				if _, err := fs.ReadFile(path); err != nil {
					t.Errorf("read: %v", err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if fs.Used() != 8 {
		t.Errorf("used = %d", fs.Used())
	}
}

func TestUsedInvariantProperty(t *testing.T) {
	// After any sequence of operations, Used() equals the sum of
	// file sizes.
	type op struct {
		Kind byte
		Path byte
		Size byte
	}
	prop := func(ops []op) bool {
		fs := New()
		paths := []string{"/a", "/b", "/c"}
		for _, o := range ops {
			p := paths[int(o.Path)%len(paths)]
			switch o.Kind % 4 {
			case 0:
				_ = fs.WriteFile(p, make([]byte, int(o.Size)))
			case 1:
				_ = fs.Unlink(p)
			case 2:
				_, _ = fs.WriteAt(p, int64(o.Size%8), make([]byte, int(o.Size)))
			case 3:
				_ = fs.Rename(p, paths[(int(o.Path)+1)%len(paths)])
			}
		}
		list, err := fs.List("")
		if err != nil {
			return false
		}
		var total int64
		for _, info := range list {
			total += info.Size
		}
		return total == fs.Used()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestErrorsAreScoped(t *testing.T) {
	fs := New()
	_, err := fs.ReadFile("/x")
	var se *scope.Error
	if !errors.As(err, &se) {
		t.Fatal("vfs errors must be scoped")
	}
}
