// Package vfs provides an in-memory, thread-safe file system used as
// the storage substrate for the shadow's remote I/O service and the
// starter's scratch space.
//
// The file system is also a fault-injection point: it can be taken
// offline (the paper's "home file system was offline" scenario), given
// a byte quota (DiskFull), hold read-only files (AccessDenied), and
// silently corrupt stored data (a deliberate source of *implicit*
// errors for end-to-end detection experiments).
//
// All failures are reported as explicit scoped errors from package
// scope, so the layers above can propagate them by Principle 3.  The
// single exception is corruption: by definition an implicit error is
// presented as a valid result, so Read returns corrupted data without
// an error — exactly the property that makes implicit errors
// expensive to detect (Section 3.1).
package vfs

import (
	"sort"
	"strings"
	"sync"

	"github.com/errscope/grid/internal/scope"
)

// Error codes reported by the file system.  This is a concise and
// finite interface per Principle 4.
const (
	CodeFileNotFound = "FileNotFound"
	CodeAccessDenied = "AccessDenied"
	CodeDiskFull     = "DiskFull"
	CodeEndOfFile    = "EndOfFile"
	CodeOffline      = "FileSystemOffline"
	CodeBadArgument  = "BadArgument"
	CodeFileExists   = "FileExists"
)

// Contract is the error interface of the file system, usable by
// callers to verify conformance (Principle 4).
func Contract() *scope.Contract {
	return scope.NewContract("vfs", scope.ScopeLocalResource, "FileSystemError").
		Declare(CodeFileNotFound, scope.ScopeFile).
		Declare(CodeAccessDenied, scope.ScopeFile).
		Declare(CodeDiskFull, scope.ScopeFile).
		Declare(CodeEndOfFile, scope.ScopeFile).
		Declare(CodeBadArgument, scope.ScopeFunction).
		Declare(CodeFileExists, scope.ScopeFile).
		Declare(CodeOffline, scope.ScopeLocalResource)
}

type file struct {
	data     []byte
	readOnly bool
}

// FileSystem is an in-memory file store with a flat, slash-separated
// namespace.  It is safe for concurrent use.
type FileSystem struct {
	mu      sync.Mutex
	files   map[string]*file
	quota   int64 // 0 = unlimited
	used    int64
	offline bool
	// corrupt maps a path to the number of reads that should be
	// silently corrupted.
	corrupt map[string]int
	// ops counts operations by name, for experiment metrics.
	ops map[string]int64
}

// New creates an empty file system with no quota.
func New() *FileSystem {
	return &FileSystem{
		files:   make(map[string]*file),
		corrupt: make(map[string]int),
		ops:     make(map[string]int64),
	}
}

// clean canonicalizes a path: leading slash, no empty segments.
func clean(path string) (string, error) {
	if path == "" {
		return "", scope.New(scope.ScopeFunction, CodeBadArgument, "empty path")
	}
	parts := strings.Split(path, "/")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		switch p {
		case "", ".":
			continue
		case "..":
			return "", scope.New(scope.ScopeFunction, CodeBadArgument, "path %q escapes the namespace", path)
		default:
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		return "", scope.New(scope.ScopeFunction, CodeBadArgument, "empty path %q", path)
	}
	return "/" + strings.Join(out, "/"), nil
}

// SetQuota sets the byte quota; 0 removes it.  Shrinking the quota
// below current usage does not destroy data but blocks further growth.
func (fs *FileSystem) SetQuota(bytes int64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.quota = bytes
}

// SetOffline marks the backing store unavailable; every operation
// fails with FileSystemOffline (local-resource scope) until restored.
func (fs *FileSystem) SetOffline(offline bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.offline = offline
}

// Offline reports the current availability state.
func (fs *FileSystem) Offline() bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.offline
}

// CorruptNextReads arranges for the next n reads of path to return
// silently corrupted data: an implicit error.
func (fs *FileSystem) CorruptNextReads(path string, n int) error {
	p, err := clean(path)
	if err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.corrupt[p] = n
	return nil
}

// Used returns the bytes currently stored.
func (fs *FileSystem) Used() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.used
}

// OpCount returns how many times the named operation ran.
func (fs *FileSystem) OpCount(op string) int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.ops[op]
}

func (fs *FileSystem) check(op string) error {
	fs.ops[op]++
	if fs.offline {
		return scope.New(scope.ScopeLocalResource, CodeOffline, "file system offline during %s", op)
	}
	return nil
}

// WriteFile stores data at path, replacing any existing content.
func (fs *FileSystem) WriteFile(path string, data []byte) error {
	p, err := clean(path)
	if err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.check("write"); err != nil {
		return err
	}
	f, exists := fs.files[p]
	var old int64
	if exists {
		if f.readOnly {
			return scope.New(scope.ScopeFile, CodeAccessDenied, "%s is read-only", p)
		}
		old = int64(len(f.data))
	}
	if fs.quota > 0 && fs.used-old+int64(len(data)) > fs.quota {
		return scope.New(scope.ScopeFile, CodeDiskFull,
			"writing %d bytes to %s exceeds quota %d (used %d)", len(data), p, fs.quota, fs.used)
	}
	fs.used += int64(len(data)) - old
	fs.files[p] = &file{data: append([]byte(nil), data...)}
	return nil
}

// ReadFile returns the content at path.  If corruption was injected,
// the returned data is silently altered — an implicit error.
func (fs *FileSystem) ReadFile(path string) ([]byte, error) {
	p, err := clean(path)
	if err != nil {
		return nil, err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.check("read"); err != nil {
		return nil, err
	}
	f, ok := fs.files[p]
	if !ok {
		return nil, scope.New(scope.ScopeFile, CodeFileNotFound, "no such file %s", p)
	}
	data := append([]byte(nil), f.data...)
	if n := fs.corrupt[p]; n > 0 {
		fs.corrupt[p] = n - 1
		corruptBytes(data)
	}
	return data, nil
}

// corruptBytes flips one bit per 64 bytes, deterministically.
func corruptBytes(data []byte) {
	if len(data) == 0 {
		return
	}
	for i := 0; i < len(data); i += 64 {
		data[i] ^= 0x80
	}
}

// ReadAt reads up to length bytes from offset into a fresh slice; it
// is AppendAt(nil, ...).
func (fs *FileSystem) ReadAt(path string, offset int64, length int) ([]byte, error) {
	return fs.AppendAt(nil, path, offset, length)
}

// AppendAt appends up to n bytes of path from offset to dst and returns
// the extended slice; on error it returns dst unchanged.  Reading at or
// past the end yields EndOfFile with zero bytes; a short read at the
// tail is not an error.  Injected corruption alters only the bytes
// appended.
func (fs *FileSystem) AppendAt(dst []byte, path string, offset int64, n int) ([]byte, error) {
	p, err := clean(path)
	if err != nil {
		return dst, err
	}
	if offset < 0 || n < 0 {
		return dst, scope.New(scope.ScopeFunction, CodeBadArgument, "negative offset or length")
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.check("read"); err != nil {
		return dst, err
	}
	f, ok := fs.files[p]
	if !ok {
		return dst, scope.New(scope.ScopeFile, CodeFileNotFound, "no such file %s", p)
	}
	if offset >= int64(len(f.data)) {
		return dst, scope.New(scope.ScopeFile, CodeEndOfFile, "offset %d past end of %s (%d bytes)", offset, p, len(f.data))
	}
	end := min(offset+int64(n), int64(len(f.data)))
	start := len(dst)
	dst = append(dst, f.data[offset:end]...)
	if c := fs.corrupt[p]; c > 0 {
		fs.corrupt[p] = c - 1
		corruptBytes(dst[start:])
	}
	return dst, nil
}

// maxFileSize bounds one file: a write that would grow a file past it
// is refused at file scope (DiskFull), as a disk refuses a file past
// its size limit, so that a hostile offset cannot make the file system
// allocate the distance to it.
const maxFileSize = 256 << 20

// WriteAt writes data at offset, extending the file if needed.
func (fs *FileSystem) WriteAt(path string, offset int64, data []byte) (int, error) {
	p, err := clean(path)
	if err != nil {
		return 0, err
	}
	if offset < 0 {
		return 0, scope.New(scope.ScopeFunction, CodeBadArgument, "negative offset")
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.check("write"); err != nil {
		return 0, err
	}
	f, ok := fs.files[p]
	if !ok {
		return 0, scope.New(scope.ScopeFile, CodeFileNotFound, "no such file %s", p)
	}
	if f.readOnly {
		return 0, scope.New(scope.ScopeFile, CodeAccessDenied, "%s is read-only", p)
	}
	if offset > maxFileSize-int64(len(data)) {
		return 0, scope.New(scope.ScopeFile, CodeDiskFull,
			"writing %d bytes at %d grows %s past the %d-byte file limit", len(data), offset, p, maxFileSize)
	}
	newLen := offset + int64(len(data))
	if newLen < int64(len(f.data)) {
		newLen = int64(len(f.data))
	}
	grow := newLen - int64(len(f.data))
	if fs.quota > 0 && fs.used+grow > fs.quota {
		return 0, scope.New(scope.ScopeFile, CodeDiskFull,
			"growing %s by %d bytes exceeds quota %d (used %d)", p, grow, fs.quota, fs.used)
	}
	if grow > 0 {
		f.data = append(f.data, make([]byte, grow)...)
		fs.used += grow
	}
	copy(f.data[offset:], data)
	return len(data), nil
}

// Create makes an empty file; it fails if the file exists.
func (fs *FileSystem) Create(path string) error {
	p, err := clean(path)
	if err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.check("create"); err != nil {
		return err
	}
	if _, ok := fs.files[p]; ok {
		return scope.New(scope.ScopeFile, CodeFileExists, "%s already exists", p)
	}
	fs.files[p] = &file{}
	return nil
}

// Unlink removes a file.
func (fs *FileSystem) Unlink(path string) error {
	p, err := clean(path)
	if err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.check("unlink"); err != nil {
		return err
	}
	f, ok := fs.files[p]
	if !ok {
		return scope.New(scope.ScopeFile, CodeFileNotFound, "no such file %s", p)
	}
	if f.readOnly {
		return scope.New(scope.ScopeFile, CodeAccessDenied, "%s is read-only", p)
	}
	fs.used -= int64(len(f.data))
	delete(fs.files, p)
	return nil
}

// Rename moves a file to a new path, replacing any existing target.
func (fs *FileSystem) Rename(oldPath, newPath string) error {
	op, err := clean(oldPath)
	if err != nil {
		return err
	}
	np, err := clean(newPath)
	if err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.check("rename"); err != nil {
		return err
	}
	f, ok := fs.files[op]
	if !ok {
		return scope.New(scope.ScopeFile, CodeFileNotFound, "no such file %s", op)
	}
	if prev, ok := fs.files[np]; ok {
		fs.used -= int64(len(prev.data))
	}
	fs.files[np] = f
	delete(fs.files, op)
	return nil
}

// Info describes a stored file.
type Info struct {
	Path     string
	Size     int64
	ReadOnly bool
}

// Stat returns metadata for path.
func (fs *FileSystem) Stat(path string) (Info, error) {
	p, err := clean(path)
	if err != nil {
		return Info{}, err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.check("stat"); err != nil {
		return Info{}, err
	}
	f, ok := fs.files[p]
	if !ok {
		return Info{}, scope.New(scope.ScopeFile, CodeFileNotFound, "no such file %s", p)
	}
	return Info{Path: p, Size: int64(len(f.data)), ReadOnly: f.readOnly}, nil
}

// SetReadOnly marks a file immutable (or mutable again).
func (fs *FileSystem) SetReadOnly(path string, ro bool) error {
	p, err := clean(path)
	if err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.check("chmod"); err != nil {
		return err
	}
	f, ok := fs.files[p]
	if !ok {
		return scope.New(scope.ScopeFile, CodeFileNotFound, "no such file %s", p)
	}
	f.readOnly = ro
	return nil
}

// List returns metadata for every file whose path begins with prefix,
// sorted by path.  An empty prefix lists everything.
func (fs *FileSystem) List(prefix string) ([]Info, error) {
	var p string
	if prefix != "" && prefix != "/" {
		var err error
		p, err = clean(prefix)
		if err != nil {
			return nil, err
		}
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.check("list"); err != nil {
		return nil, err
	}
	var out []Info
	for path, f := range fs.files {
		if p == "" || path == p || strings.HasPrefix(path, p+"/") {
			out = append(out, Info{Path: path, Size: int64(len(f.data)), ReadOnly: f.readOnly})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}
