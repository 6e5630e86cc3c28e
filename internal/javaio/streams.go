package javaio

import (
	"io"

	"github.com/errscope/grid/internal/scope"
)

// errScoped returns the code of a scoped error.
func errScoped(err error) (string, bool) {
	se, ok := scope.AsError(err)
	if !ok {
		return "", false
	}
	return se.Code, true
}

// InputStream presents a file as a sequential reader, in the style of
// java.io.InputStream.  A clean end of file is io.EOF per Go
// convention; every other failure is a converted scoped error.
type InputStream struct {
	lib  *Library
	path string
	pos  int64
}

// OpenInput creates an input stream on the library.
func (l *Library) OpenInput(path string) *InputStream {
	return &InputStream{lib: l, path: path}
}

// Read implements io.Reader.
func (s *InputStream) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	data, err := s.lib.Read(s.path, s.pos, len(p))
	if err != nil {
		if code, ok := errScoped(err); ok && code == ExcEOF {
			return 0, io.EOF
		}
		return 0, err
	}
	if len(data) == 0 {
		return 0, io.EOF
	}
	n := copy(p, data)
	s.pos += int64(n)
	return n, nil
}

// OutputStream presents a file as a sequential writer, in the style
// of java.io.OutputStream.
type OutputStream struct {
	lib  *Library
	path string
	pos  int64
}

// OpenOutput creates an output stream on the library.
func (l *Library) OpenOutput(path string) *OutputStream {
	return &OutputStream{lib: l, path: path}
}

// Write implements io.Writer.
func (s *OutputStream) Write(p []byte) (int, error) {
	n, err := s.lib.Write(s.path, s.pos, p)
	s.pos += int64(n)
	if err != nil {
		return n, err
	}
	if n < len(p) {
		return n, scope.New(scope.ScopeProgram, ExcDiskFull, "short write to %s", s.path)
	}
	return n, nil
}

var (
	_ io.Reader = (*InputStream)(nil)
	_ io.Writer = (*OutputStream)(nil)
)
