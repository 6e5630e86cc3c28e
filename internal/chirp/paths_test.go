package chirp

import (
	"bytes"
	"testing"

	"github.com/errscope/grid/internal/wire"
)

var allModes = []wire.Mode{wire.ModeText, wire.ModeBinary, wire.ModeSecure}

// awkwardPaths are names wire.Quote leaves a plain space in, or has to
// escape: text mode used to split the first two at the space (a
// refused Open or Stat, and a List that silently returned "c d" for
// "c  d" — the paper's implicit error), while the framed modes carried
// all three.
var awkwardPaths = []string{"/dir/a b", "/dir/c  d", `/dir/q"uote`}

// TestAwkwardPathsEveryMode drives each path-carrying operation with
// each awkward name in each transport mode.
func TestAwkwardPathsEveryMode(t *testing.T) {
	for _, mode := range allModes {
		for _, path := range awkwardPaths {
			t.Run(mode.String()+path, func(t *testing.T) {
				fs, _, addr := startServer(t, "k")
				c := dialBin(t, addr, "k", mode)

				fd, err := c.Open(path, FlagWrite|FlagCreate)
				if err != nil {
					t.Fatalf("open: %v", err)
				}
				if _, err := c.Write(fd, []byte("xyz")); err != nil {
					t.Fatalf("write: %v", err)
				}
				if got, _ := fs.ReadFile(path); string(got) != "xyz" {
					t.Fatalf("file at %q = %q", path, got)
				}
				info, err := c.Stat(path)
				if err != nil || info.Path != path || info.Size != 3 {
					t.Fatalf("stat = %+v, %v", info, err)
				}
				infos, err := c.List("/dir")
				if err != nil || len(infos) != 1 || infos[0].Path != path {
					t.Fatalf("list = %+v, %v", infos, err)
				}
				moved := path + " moved"
				if err := c.Rename(path, moved); err != nil {
					t.Fatalf("rename: %v", err)
				}
				if err := c.Unlink(moved); err != nil {
					t.Fatalf("unlink: %v", err)
				}
				if infos, err := c.List("/dir"); err != nil || len(infos) != 0 {
					t.Fatalf("list after unlink = %+v, %v", infos, err)
				}
			})
		}
	}
}

// TestFramePastPooledBuffer: a payload that outgrows the frame
// reader's pooled 64 KiB buffer crosses the framed modes intact, in
// both directions (the regression is in package wire; this is the
// protocol's view of it, where it read as ConnectionLost).
func TestFramePastPooledBuffer(t *testing.T) {
	for _, mode := range []wire.Mode{wire.ModeBinary, wire.ModeSecure} {
		t.Run(mode.String(), func(t *testing.T) {
			_, _, addr := startServer(t, "k")
			c := dialBin(t, addr, "k", mode)
			fd, err := c.Open("/big", FlagRead|FlagWrite|FlagCreate)
			if err != nil {
				t.Fatal(err)
			}
			data := bytes.Repeat([]byte("0123456789"), 7000)
			if n, err := c.PWrite(fd, data, 0); err != nil || n != len(data) {
				t.Fatalf("pwrite = %d, %v", n, err)
			}
			got, err := c.PRead(fd, len(data), 0)
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("pread = %d bytes, %v", len(got), err)
			}
		})
	}
}
