package chirp

import (
	"github.com/errscope/grid/internal/scope"
	"github.com/errscope/grid/internal/vfs"
)

// Backend is the storage service behind a Chirp proxy.  The proxy in
// the starter may be backed by local scratch space, by the shadow's
// remote I/O channel, or by anything else — the paper envisions
// security and discovery services behind the same interface.
//
// Backends report failures as scoped errors; the server forwards code,
// scope, and message across the wire.
type Backend interface {
	// Open returns a handle for the named file.
	Open(path string, flags OpenFlags) (File, error)
	// Unlink removes the named file.
	Unlink(path string) error
	// Rename moves a file.
	Rename(oldPath, newPath string) error
	// Stat describes a file.
	Stat(path string) (vfs.Info, error)
	// List enumerates files under a prefix.
	List(prefix string) ([]vfs.Info, error)
}

// File is an open file within a backend.
type File interface {
	// ReadAt appends up to length bytes at offset to dst and returns
	// the extended slice, or dst unchanged on error.  The proxy passes
	// its connection's own buffer: several connections may share one
	// backend, never a dst.
	ReadAt(dst []byte, offset int64, length int) ([]byte, error)
	// WriteAt writes data at offset.
	WriteAt(offset int64, data []byte) (int, error)
	// Size returns the current file size.
	Size() (int64, error)
	// Close releases the handle.
	Close() error
}

// VFSBackend adapts a vfs.FileSystem to the Backend interface.
type VFSBackend struct {
	FS *vfs.FileSystem
}

var _ Backend = (*VFSBackend)(nil)

// Open implements Backend.
func (b *VFSBackend) Open(path string, flags OpenFlags) (File, error) {
	_, err := b.FS.Stat(path)
	switch {
	case err == nil:
		if flags&FlagTruncate != 0 {
			if werr := b.FS.WriteFile(path, nil); werr != nil {
				return nil, werr
			}
		}
	case scope.ScopeOf(err) == scope.ScopeFile && flags&FlagCreate != 0:
		if cerr := b.FS.Create(path); cerr != nil {
			return nil, cerr
		}
	default:
		return nil, err
	}
	return &vfsFile{fs: b.FS, path: path, flags: flags}, nil
}

// Unlink implements Backend.
func (b *VFSBackend) Unlink(path string) error { return b.FS.Unlink(path) }

// Rename implements Backend.
func (b *VFSBackend) Rename(oldPath, newPath string) error {
	return b.FS.Rename(oldPath, newPath)
}

// Stat implements Backend.
func (b *VFSBackend) Stat(path string) (vfs.Info, error) { return b.FS.Stat(path) }

// List implements Backend.
func (b *VFSBackend) List(prefix string) ([]vfs.Info, error) { return b.FS.List(prefix) }

type vfsFile struct {
	fs     *vfs.FileSystem
	path   string
	flags  OpenFlags
	closed bool
}

func (f *vfsFile) ReadAt(dst []byte, offset int64, length int) ([]byte, error) {
	if f.closed {
		return dst, scope.New(scope.ScopeFunction, CodeBadFD, "read on closed file %s", f.path)
	}
	if f.flags&FlagRead == 0 {
		return dst, scope.New(scope.ScopeFile, CodeAccessDenied, "%s not open for reading", f.path)
	}
	return f.fs.AppendAt(dst, f.path, offset, length)
}

func (f *vfsFile) WriteAt(offset int64, data []byte) (int, error) {
	if f.closed {
		return 0, scope.New(scope.ScopeFunction, CodeBadFD, "write on closed file %s", f.path)
	}
	if f.flags&FlagWrite == 0 {
		return 0, scope.New(scope.ScopeFile, CodeAccessDenied, "%s not open for writing", f.path)
	}
	return f.fs.WriteAt(f.path, offset, data)
}

func (f *vfsFile) Size() (int64, error) {
	info, err := f.fs.Stat(f.path)
	if err != nil {
		return 0, err
	}
	return info.Size, nil
}

func (f *vfsFile) Close() error {
	f.closed = true
	return nil
}
