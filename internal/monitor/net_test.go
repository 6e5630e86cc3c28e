package monitor

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/errscope/grid/internal/pool"
	"github.com/errscope/grid/internal/rpc"
	"github.com/errscope/grid/internal/scope"
	"github.com/errscope/grid/internal/wire"
)

var opsKey = []byte("ops-plane-secret")

// TestServedStream runs the full attach/stream/admin/detach cycle
// over a real TCP connection in each transport mode: the streamed
// trace matches the pool's, admin verbs round-trip with their scoped
// errors intact, and a server-side drop ends the subscription cleanly.
func TestServedStream(t *testing.T) {
	for _, mode := range []wire.Mode{wire.ModeText, wire.ModeBinary, wire.ModeSecure} {
		t.Run(mode.String(), func(t *testing.T) {
			p, rec := testPool(12, pool.UniformMachines(2, 2048), 2)
			mon := Attach(p, rec, "mon")
			srv := NewServer(mon, opsKey)
			srv.Mode = mode
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()

			sub, err := Dial(addr, mode, opsKey)
			if err != nil {
				t.Fatal(err)
			}
			defer sub.Close()
			if err := sub.Subscribe(0); err != nil {
				t.Fatal(err)
			}
			for mon.Subscribers() == 0 {
				time.Sleep(time.Millisecond)
			}
			col := NewCollector()
			done := make(chan error, 1)
			go func() { done <- sub.Collect(col) }()

			adm, err := Dial(addr, mode, opsKey)
			if err != nil {
				t.Fatal(err)
			}
			defer adm.Close()

			drive(p, mon, 24*time.Hour, nil)
			mon.Pump()

			// Admin verbs round-trip, including the scoped miss.
			detail, err := adm.Admin("compact", "schedd")
			if err != nil || !strings.Contains(detail, "compacted") {
				t.Fatalf("compact over the wire: %q, %v", detail, err)
			}
			_, err = adm.Admin("drain", "nosuch")
			se, ok := scope.AsError(err)
			if !ok || se.Scope != scope.ScopePool || se.Code != "UnknownTarget" {
				t.Fatalf("unknown target over the wire: %v", err)
			}
			_, err = adm.Admin("reboot", "c000")
			if se, ok = scope.AsError(err); !ok || se.Code != "UnknownVerb" {
				t.Fatalf("unknown verb over the wire: %v", err)
			}

			// The compact verb itself traced; stream the tail too.
			mon.Pump()

			// A server-side drop closes the subscriber session cleanly.
			if n := mon.DropSubscribers(); n != 1 {
				t.Fatalf("dropped %d subscribers, want 1", n)
			}
			if err := <-done; err != nil {
				t.Fatalf("collect after drop: %v", err)
			}
			want := rec.Events()
			got := col.Events()
			if len(got) != len(want) {
				t.Fatalf("streamed %d events, pool recorded %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("event %d differs over the wire: %+v != %+v", i, got[i], want[i])
				}
			}
			if len(col.Snapshots()) == 0 {
				t.Fatal("no snapshots over the wire")
			}
		})
	}
}

// TestServedAuthFailure pins the authentication error in every mode:
// a client with the wrong key is refused before any record flows.
func TestServedAuthFailure(t *testing.T) {
	for _, mode := range []wire.Mode{wire.ModeText, wire.ModeBinary, wire.ModeSecure} {
		t.Run(mode.String(), func(t *testing.T) {
			p, rec := testPool(13, pool.UniformMachines(2, 2048), 1)
			mon := Attach(p, rec, "mon")
			_ = p
			srv := NewServer(mon, opsKey)
			srv.Mode = mode
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			cli, err := Dial(addr, mode, []byte("wrong"))
			if err == nil {
				cli.Close()
				t.Fatal("a wrong key authenticated")
			}
		})
	}
}

// TestDialSilentServerTimesOut is the regression for the ops-plane
// client that could hang forever: it dialled with no connect timeout
// and ran the handshake, the text authentication and Admin with no
// deadline.  Against a listener that accepts and never speaks, the
// dial now fails like the other clients' — an escaping network-scope
// error, RequestTimeout where the client was waiting on a text line —
// and so does a round trip on a connection that goes silent later.
func TestDialSilentServerTimesOut(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
		}
	}()
	short := 150 * time.Millisecond
	for _, mode := range []wire.Mode{wire.ModeText, wire.ModeBinary, wire.ModeSecure} {
		start := time.Now()
		cli, err := dial(ln.Addr().String(), opsKey, rpc.DialOptions{Mode: mode, IOTimeout: short})
		if err == nil {
			cli.Close()
			t.Fatalf("%s: a silent server authenticated", mode)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("%s: dial took %v", mode, elapsed)
		}
		se, ok := scope.AsError(err)
		if !ok || se.Scope != scope.ScopeNetwork || se.Kind != scope.KindEscaping {
			t.Fatalf("%s: dial = %v, want an escaping network-scope error", mode, err)
		}
		if mode == wire.ModeText && se.Code != CodeRequestTimeout {
			t.Errorf("text: dial = %v, want %s", err, CodeRequestTimeout)
		}
	}

	// A server that authenticates and then goes silent: Admin is
	// bounded too, and the failure sticks.
	silent := rpc.NewAcceptor("silent", func(conn net.Conn) {
		r := bufio.NewReader(conn)
		if rpc.Challenge(r, bufio.NewWriter(conn), opsKey, authFailed()) {
			io.Copy(io.Discard, r)
		}
	})
	addr, err := silent.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	cli, err := dial(addr, opsKey, rpc.DialOptions{IOTimeout: short})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	_, err = cli.Admin("compact", "schedd")
	if se, ok := scope.AsError(err); !ok || se.Code != CodeRequestTimeout || se.Scope != scope.ScopeNetwork || se.Kind != scope.KindEscaping {
		t.Fatalf("admin against a silent server = %v, want escaping %s", err, CodeRequestTimeout)
	}
	if err2 := cli.Subscribe(0); err2 != err {
		t.Errorf("call after the timeout = %v, want the sticky %v", err2, err)
	}
}

// TestDeliverNeverBlocksOnBackpressure pins the pump-stall fix: a
// subscriber that stops reading (an unread net.Pipe — the hardest
// possible backpressure, zero kernel buffering) never blocks Deliver.
// The sink buffers into its bounded queue, overflows, fails, and
// closes its connection, all without the delivering goroutine — which
// in production holds the monitor lock inside the pool stepping
// loop — ever touching the network.
func TestDeliverNeverBlocksOnBackpressure(t *testing.T) {
	server, client := net.Pipe()
	defer client.Close()
	w := bufio.NewWriter(server)
	sink := newAsyncSink(server, func(_ byte, line string) error {
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
		return w.Flush()
	})

	overflowed := make(chan error, 1)
	go func() {
		var err error
		for i := 0; i < 4*subscriberQueueDepth; i++ {
			if err = sink.Deliver(cmdEvent, "rec"); err != nil {
				break
			}
		}
		overflowed <- err
	}()
	select {
	case err := <-overflowed:
		if err == nil || !strings.Contains(err.Error(), "behind") {
			t.Fatalf("overflow error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Deliver blocked on an unread subscriber")
	}

	// The failure is permanent and the writer goroutine exits.
	if err := sink.Deliver(cmdEvent, "rec"); err == nil {
		t.Fatal("a failed sink accepted delivery")
	}
	sink.Close()
	select {
	case <-sink.done:
	case <-time.After(10 * time.Second):
		t.Fatal("writer goroutine did not exit after the overflow")
	}
}

// TestServedBadFirstFrame pins the channel contract across
// transports: a framed connection whose first record is neither msub
// nor madm gets an explicit BadRequest error frame — the same refusal
// the text path gives — not a silent close.
func TestServedBadFirstFrame(t *testing.T) {
	p, rec := testPool(15, pool.UniformMachines(2, 2048), 1)
	_ = p
	mon := Attach(p, rec, "mon")
	srv := NewServer(mon, opsKey)
	srv.Mode = wire.ModeBinary
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sess := wire.NewSession(bufio.NewReader(conn), conn,
		wire.Config{Mode: wire.ModeBinary, Secret: opsKey})
	defer sess.Release()
	if err := sess.ClientHandshake(); err != nil {
		t.Fatal(err)
	}
	if err := sess.WriteMsg(cmdEvent, []byte("noise")); err != nil {
		t.Fatal(err)
	}
	cmd, payload, err := sess.ReadMsg()
	if err != nil {
		t.Fatal(err)
	}
	if cmd != wire.CmdErr {
		t.Fatalf("reply %#x, want CmdErr", cmd)
	}
	se, derr := wire.DecodeErrorPayload(payload)
	if derr != nil {
		t.Fatal(derr)
	}
	if se.Scope != scope.ScopeFunction || se.Code != CodeBadRequest {
		t.Fatalf("refusal %v, want function-scope %s", se, CodeBadRequest)
	}
}

// TestKillMidStreamOverWire is the tentpole's kill guarantee, over a
// real socket: killing the monitor daemon mid-stream closes only the
// subscriber sessions, and the pool's dispositions are byte-identical
// to a run that never had a monitor at all.
func TestKillMidStreamOverWire(t *testing.T) {
	bare := func() string {
		p, _ := testPool(14, pool.UniformMachines(3, 2048), 4)
		p.Run(24 * time.Hour)
		return dispositions(p)
	}()

	p, rec := testPool(14, pool.UniformMachines(3, 2048), 4)
	mon := Attach(p, rec, "mon")
	srv := NewServer(mon, opsKey)
	srv.Mode = wire.ModeBinary
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cols := make([]*Collector, 2)
	dones := make([]chan error, 2)
	for i := range cols {
		cli, err := Dial(addr, wire.ModeBinary, opsKey)
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		if err := cli.Subscribe(0); err != nil {
			t.Fatal(err)
		}
		cols[i] = NewCollector()
		dones[i] = make(chan error, 1)
		go func(c *Client, col *Collector, done chan error) {
			done <- c.Collect(col)
		}(cli, cols[i], dones[i])
	}
	for mon.Subscribers() != 2 {
		time.Sleep(time.Millisecond)
	}

	drive(p, mon, 24*time.Hour, map[time.Duration]func(){
		45 * time.Minute: func() {
			if n := mon.Kill(); n != 2 {
				t.Errorf("kill closed %d sessions, want 2", n)
			}
		},
	})
	for i := range dones {
		if err := <-dones[i]; err != nil {
			t.Fatalf("subscriber %d did not close cleanly: %v", i, err)
		}
	}
	if got := dispositions(p); got != bare {
		t.Fatal("killing the monitor mid-stream changed the pool's dispositions")
	}
	if m := p.Metrics(); m.Completed != 4 {
		t.Fatalf("workload did not complete under the kill: %+v", m)
	}
}
