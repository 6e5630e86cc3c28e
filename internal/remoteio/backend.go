package remoteio

import (
	"github.com/errscope/grid/internal/chirp"
	"github.com/errscope/grid/internal/scope"
	"github.com/errscope/grid/internal/vfs"
)

// ChirpBackend adapts the shadow remote I/O channel to the
// chirp.Backend interface, completing the Figure 2 data path: the
// job's I/O library speaks Chirp to the proxy in the starter, and the
// proxy forwards each operation over the shadow channel to the submit
// machine's file system.
//
// The adapter is also a scope-widening layer (Section 3.3): a lost
// shadow channel is a network-scope escape at the transport, but from
// the execution site's point of view it means the submit-side
// resource is unavailable — local-resource scope, which the shadow's
// manager must handle.
type ChirpBackend struct {
	Client *Client
}

var _ chirp.Backend = (*ChirpBackend)(nil)

// widen converts transport escapes to ShadowUnavailableError at
// local-resource scope; explicit errors pass through unchanged.
func widen(err error) error {
	if err == nil {
		return nil
	}
	se, ok := scope.AsError(err)
	if ok && se.Kind == scope.KindEscaping {
		return se.Widen(scope.ScopeLocalResource, "ShadowUnavailableError")
	}
	return err
}

// Open implements chirp.Backend.
func (b *ChirpBackend) Open(path string, flags chirp.OpenFlags) (chirp.File, error) {
	_, err := b.Client.Stat(path)
	if err != nil {
		if scope.ScopeOf(err) == scope.ScopeFile && flags&chirp.FlagCreate != 0 {
			if cerr := b.Client.Create(path); cerr != nil {
				return nil, widen(cerr)
			}
		} else {
			return nil, widen(err)
		}
	} else if flags&chirp.FlagTruncate != 0 {
		if terr := b.Client.Truncate(path); terr != nil {
			return nil, widen(terr)
		}
	}
	return &remoteFile{client: b.Client, path: path, flags: flags}, nil
}

// Unlink implements chirp.Backend.
func (b *ChirpBackend) Unlink(path string) error { return widen(b.Client.Unlink(path)) }

// Rename implements chirp.Backend.
func (b *ChirpBackend) Rename(oldPath, newPath string) error {
	return widen(b.Client.Rename(oldPath, newPath))
}

// Stat implements chirp.Backend.
func (b *ChirpBackend) Stat(path string) (vfs.Info, error) {
	info, err := b.Client.Stat(path)
	return info, widen(err)
}

// List implements chirp.Backend.
func (b *ChirpBackend) List(prefix string) ([]vfs.Info, error) {
	infos, err := b.Client.List(prefix)
	return infos, widen(err)
}

type remoteFile struct {
	client *Client
	path   string
	flags  chirp.OpenFlags
	closed bool
}

func (f *remoteFile) ReadAt(dst []byte, offset int64, length int) ([]byte, error) {
	if f.closed {
		return dst, scope.New(scope.ScopeFunction, chirp.CodeBadFD, "read on closed file %s", f.path)
	}
	if f.flags&chirp.FlagRead == 0 {
		return dst, scope.New(scope.ScopeFile, chirp.CodeAccessDenied, "%s not open for reading", f.path)
	}
	data, err := f.client.AppendAt(dst, f.path, offset, length)
	return data, widen(err)
}

func (f *remoteFile) WriteAt(offset int64, data []byte) (int, error) {
	if f.closed {
		return 0, scope.New(scope.ScopeFunction, chirp.CodeBadFD, "write on closed file %s", f.path)
	}
	if f.flags&chirp.FlagWrite == 0 {
		return 0, scope.New(scope.ScopeFile, chirp.CodeAccessDenied, "%s not open for writing", f.path)
	}
	n, err := f.client.Write(f.path, offset, data)
	return n, widen(err)
}

func (f *remoteFile) Size() (int64, error) {
	info, err := f.client.Stat(f.path)
	if err != nil {
		return 0, widen(err)
	}
	return info.Size, nil
}

func (f *remoteFile) Close() error {
	f.closed = true
	return nil
}
