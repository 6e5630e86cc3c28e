package remoteio

import (
	"bytes"
	"testing"

	"github.com/errscope/grid/internal/chirp"
	"github.com/errscope/grid/internal/wire"
)

var allModes = []wire.Mode{wire.ModeText, wire.ModeBinary, wire.ModeSecure}

// awkwardPaths are names wire.Quote leaves a plain space in, or has to
// escape; text mode used to split the first two at the space.
var awkwardPaths = []string{"/dir/a b", "/dir/c  d", `/dir/q"uote`}

// TestAwkwardPathsEveryMode drives each path-carrying RPC with each
// awkward name in each transport mode.
func TestAwkwardPathsEveryMode(t *testing.T) {
	for _, mode := range allModes {
		for _, path := range awkwardPaths {
			t.Run(mode.String()+path, func(t *testing.T) {
				fs, _, addr := startShadowMode(t, mode)
				c := dialShadowBin(t, addr, mode)

				if err := c.Create(path); err != nil {
					t.Fatalf("create: %v", err)
				}
				if n, err := c.Write(path, 0, []byte("xyz")); err != nil || n != 3 {
					t.Fatalf("write = %d, %v", n, err)
				}
				if got, _ := fs.ReadFile(path); string(got) != "xyz" {
					t.Fatalf("file at %q = %q", path, got)
				}
				if got, err := c.Read(path, 1, 2); err != nil || string(got) != "yz" {
					t.Fatalf("read = %q, %v", got, err)
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
				if _, err := c.Stat(moved); err != nil {
					t.Fatalf("stat after rename: %v", err)
				}
			})
		}
	}
}

// TestAwkwardPathsThroughTextChain sends the awkward names down the
// whole legacy data path: chirp text to the proxy, ChirpBackend, and
// remoteio text to the shadow.
func TestAwkwardPathsThroughTextChain(t *testing.T) {
	fs, _, shadowAddr := startShadow(t)
	link := shadowClient(t, shadowAddr)
	proxy := chirp.NewServer(&ChirpBackend{Client: link}, "ck")
	proxyAddr, err := proxy.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	job, err := chirp.Dial(proxyAddr, "ck")
	if err != nil {
		t.Fatal(err)
	}
	defer job.Close()

	for _, path := range awkwardPaths {
		fd, err := job.Open(path, chirp.FlagWrite|chirp.FlagCreate)
		if err != nil {
			t.Fatalf("open %q: %v", path, err)
		}
		if _, err := job.Write(fd, []byte(path)); err != nil {
			t.Fatalf("write %q: %v", path, err)
		}
		if got, _ := fs.ReadFile(path); string(got) != path {
			t.Fatalf("shadow file at %q = %q", path, got)
		}
		if info, err := job.Stat(path); err != nil || info.Path != path {
			t.Fatalf("stat %q = %+v, %v", path, info, err)
		}
	}
	infos, err := job.List("/dir")
	if err != nil || len(infos) != len(awkwardPaths) {
		t.Fatalf("list = %+v, %v", infos, err)
	}
	for i, path := range awkwardPaths {
		if infos[i].Path != path {
			t.Errorf("list[%d] = %q, want %q", i, infos[i].Path, path)
		}
	}
}

// TestFramePastPooledBuffer: a payload that outgrows the frame
// reader's pooled 64 KiB buffer crosses the framed modes intact, in
// both directions.
func TestFramePastPooledBuffer(t *testing.T) {
	for _, mode := range []wire.Mode{wire.ModeBinary, wire.ModeSecure} {
		t.Run(mode.String(), func(t *testing.T) {
			_, _, addr := startShadowMode(t, mode)
			c := dialShadowBin(t, addr, mode)
			if err := c.Create("/big"); err != nil {
				t.Fatal(err)
			}
			data := bytes.Repeat([]byte("0123456789"), 7000)
			if n, err := c.Write("/big", 0, data); err != nil || n != len(data) {
				t.Fatalf("write = %d, %v", n, err)
			}
			got, err := c.Read("/big", 0, len(data))
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("read = %d bytes, %v", len(got), err)
			}
		})
	}
}
