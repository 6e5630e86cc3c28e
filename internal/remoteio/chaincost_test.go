//go:build !race

package remoteio

// Clock-free cost guards on the live chain: syscalls on the job's
// socket and bytes allocated by the whole process, per 32 KiB op.  The
// race detector changes what allocates, and the frame buffer pool drops
// items at random under it, so these run only without it.

import (
	"net"
	"runtime"
	"sync/atomic"
	"testing"

	"github.com/errscope/grid/internal/wire"
)

// countingConn counts the Read and Write calls on a connection; on TCP
// each call is one syscall.
type countingConn struct {
	net.Conn
	calls atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.calls.Add(1)
	return c.Conn.Read(p)
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.calls.Add(1)
	return c.Conn.Write(p)
}

// chainLegs are the transports of the chain's three legs: the job to
// the proxy, and the proxy to the shadow.
var chainLegs = []struct {
	name      string
	job, link wire.Mode
}{
	{"legacy", wire.ModeText, wire.ModeText},
	{"framed", wire.ModeBinary, wire.ModeBinary},
	{"secure", wire.ModeBinary, wire.ModeSecure},
}

// TestChainCostPerOp pins what one 32 KiB PRead or PWrite costs from
// the job's socket to the shadow's file system, on every leg: one
// write and one read syscall on the job's connection, since every
// endpoint's buffers hold a whole message, and no payload allocated at
// any hop but the slice PRead returns — 32 KiB plus small change per
// read, small change per write.
func TestChainCostPerOp(t *testing.T) {
	const ops, slack = 1000, 2 << 10
	for _, leg := range chainLegs {
		t.Run(leg.name, func(t *testing.T) {
			_, proxyAddr := startChain(t, leg.link, 1<<20)
			raw, err := net.Dial("tcp", proxyAddr)
			if err != nil {
				t.Fatal(err)
			}
			conn := &countingConn{Conn: raw}
			c, fd := dialJob(t, proxyAddr, conn, leg.job)
			data := make([]byte, chainOp)
			offset := func(i int) int64 { return int64(i%31) * chainOp }
			read := func(i int) {
				if got, err := c.PRead(fd, chainOp, offset(i)); err != nil || len(got) != chainOp {
					t.Fatalf("pread %d: %d bytes, %v", i, len(got), err)
				}
			}
			write := func(i int) {
				if n, err := c.PWrite(fd, data, offset(i)); err != nil || n != chainOp {
					t.Fatalf("pwrite %d: %d, %v", i, n, err)
				}
			}
			for _, op := range []struct {
				name     string
				do       func(int)
				maxBytes uint64
			}{
				{"pread", read, chainOp + slack},
				{"pwrite", write, slack},
			} {
				for i := 0; i < 50; i++ { // grow every buffer on the path
					op.do(i)
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				calls := conn.calls.Load()
				for i := 0; i < ops; i++ {
					op.do(i)
				}
				calls = conn.calls.Load() - calls
				runtime.ReadMemStats(&after)
				t.Logf("%s: %.3f syscalls, %d bytes allocated per op", op.name,
					float64(calls)/ops, (after.TotalAlloc-before.TotalAlloc)/ops)
				if per := float64(calls) / ops; per > 2.05 {
					t.Errorf("%s: %.3f syscalls per op on the job's socket, want at most 2.05", op.name, per)
				}
				if per := (after.TotalAlloc - before.TotalAlloc) / ops; per > op.maxBytes {
					t.Errorf("%s: %d bytes allocated per op along the chain, want at most %d", op.name, per, op.maxBytes)
				}
			}
		})
	}
}
