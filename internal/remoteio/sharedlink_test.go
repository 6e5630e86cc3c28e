package remoteio

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"

	"github.com/errscope/grid/internal/chirp"
	"github.com/errscope/grid/internal/vfs"
	"github.com/errscope/grid/internal/wire"
)

const (
	chainPath = "/data/chain"
	chainOp   = 32 << 10
)

// startChain brings up the Figure-2 data path on loopback — a shadow
// serving fs in linkMode, one remoteio.Client to it, and a chirp proxy
// forwarding over that one link — with a file of fileSize random bytes
// staged, and returns the file's content and the proxy's address.
func startChain(t testing.TB, linkMode wire.Mode, fileSize int) ([]byte, string) {
	t.Helper()
	fs := vfs.New()
	model := make([]byte, fileSize)
	rand.New(rand.NewSource(int64(fileSize))).Read(model)
	if err := fs.WriteFile(chainPath, model); err != nil {
		t.Fatal(err)
	}
	shadow := NewServer(fs, testKey)
	shadow.Mode = linkMode
	addr, err := shadow.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(shadow.Close)
	link, err := DialMode(addr, testKey, linkMode)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { link.Close() })
	proxy := chirp.NewServer(&ChirpBackend{Client: link}, "ck")
	proxyAddr, err := proxy.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(proxy.Close)
	return model, proxyAddr
}

// dialJob opens a job connection to the proxy over conn (nil dials a
// plain one) and opens the chain's file on it.
func dialJob(t testing.TB, proxyAddr string, conn net.Conn, mode wire.Mode) (*chirp.Client, int) {
	t.Helper()
	if conn == nil {
		var err error
		if conn, err = net.Dial("tcp", proxyAddr); err != nil {
			t.Fatal(err)
		}
	}
	c, err := chirp.NewClient(conn, "ck", chirp.DialOptions{Mode: mode})
	if err != nil {
		conn.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	fd, err := c.Open(chainPath, chirp.FlagRead|chirp.FlagWrite)
	if err != nil {
		t.Fatal(err)
	}
	return c, fd
}

// TestSharedLinkKeepsSessionsApart is the starter's proxy serving two
// job connections over one remoteio link: a binary and a secure chirp
// client interleave 32 KiB PReads and PWrites on disjoint halves of one
// file, and every read must return exactly what that client's own
// model holds.  Each proxy connection reads into its own buffer and
// the link appends each reply to the caller's, so a buffer shared
// across sessions shows up here as wrong bytes, or under -race as a
// data race.
func TestSharedLinkKeepsSessionsApart(t *testing.T) {
	const ops, region = 64, 8 * chainOp
	for _, link := range []wire.Mode{wire.ModeText, wire.ModeBinary, wire.ModeSecure} {
		t.Run("link-"+link.String(), func(t *testing.T) {
			file, proxyAddr := startChain(t, link, 2*region)
			var wg sync.WaitGroup
			for i, mode := range []wire.Mode{wire.ModeBinary, wire.ModeSecure} {
				c, fd := dialJob(t, proxyAddr, nil, mode)
				base := int64(i * region)
				model := append([]byte(nil), file[base:base+region]...)
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := interleave(c, fd, base, model, ops, int64(i)); err != nil {
						t.Errorf("%s client: %v", mode, err)
					}
				}()
			}
			wg.Wait()
		})
	}
}

// interleave alternates 32 KiB PReads and PWrites at random offsets of
// the region [base, base+len(model)), checking each read against model
// and applying each write to it.
func interleave(c *chirp.Client, fd int, base int64, model []byte, ops int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, chainOp)
	for op := 0; op < ops; op++ {
		off := int64(rng.Intn(len(model) - chainOp))
		if op%2 == 0 {
			got, err := c.PRead(fd, chainOp, base+off)
			if err != nil {
				return fmt.Errorf("op %d: pread: %v", op, err)
			}
			if !bytes.Equal(got, model[off:off+chainOp]) {
				return fmt.Errorf("op %d: pread at %d returned wrong bytes", op, base+off)
			}
			continue
		}
		rng.Read(data)
		if n, err := c.PWrite(fd, data, base+off); err != nil || n != chainOp {
			return fmt.Errorf("op %d: pwrite = %d, %v", op, n, err)
		}
		copy(model[off:], data)
	}
	return nil
}
