package monitor

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"github.com/errscope/grid/internal/rpc"
	"github.com/errscope/grid/internal/scope"
	"github.com/errscope/grid/internal/wire"
)

// Error codes of the ops-plane channel.
const (
	CodeAuthFailed     = "AuthenticationFailed"
	CodeBadRequest     = "BadRequest"
	CodeMonitorDead    = "MonitorDead"
	CodeConnectionLost = wire.CodeConnectionLostName
	// CodeRequestTimeout marks a round trip whose I/O deadline expired;
	// like a lost connection it escapes with network scope.
	CodeRequestTimeout = "RequestTimeout"
)

// Contract returns the explicit error interface of the channel: an
// admin verb can fail at the scope of the daemon it touched, the pool
// can disown an unknown target, and the transport can die — and the
// caller can tell which happened.
func Contract() *scope.Contract {
	return scope.NewContract("monitor", scope.ScopeNetwork, CodeConnectionLost).
		Declare(CodeBadRequest, scope.ScopeFunction).
		Declare(CodeAuthFailed, scope.ScopeLocalResource).
		Declare(CodeMonitorDead, scope.ScopeProcess).
		Declare("UnknownVerb", scope.ScopePool).
		Declare("UnknownTarget", scope.ScopePool)
}

// Server exposes one monitor over TCP.  A connection's first record
// declares what it is: msub makes it a subscriber session (one-way,
// server to client, until either side closes), madm makes it an admin
// session (strict request/reply).  Serving is the monitor's business
// only — accepting, authenticating, or losing a connection never
// touches the pool.
type Server struct {
	*rpc.Acceptor // Listen and Close

	mon *Monitor
	key []byte

	// Mode selects the transport for every connection; set before
	// Listen.  ModeText is the legacy line protocol with
	// challenge/response authentication; any other mode serves the
	// framed wire.Session and accepts whichever of binary/secure the
	// client opens with.
	Mode wire.Mode
}

// NewServer creates an ops-plane service for mon, authenticated by
// the shared key.
func NewServer(mon *Monitor, key []byte) *Server {
	s := &Server{mon: mon, key: append([]byte(nil), key...)}
	s.Acceptor = rpc.NewAcceptor("monitor", s.serve)
	return s
}

func authFailed() *scope.Error {
	return scope.New(scope.ScopeLocalResource, CodeAuthFailed, "monitor authentication failed")
}

// link is one authenticated connection seen as records.  The records
// are the same canonical lines on both transports; only the envelope
// differs, and the link hides it: a frame whose command byte names the
// record, or a bare line (the record tags make the byte redundant)
// with replies prefixed "ok" / "error".
type link interface {
	// recv reads the client's next record.
	recv() (string, error)
	// send writes a stream record under its command, or with
	// wire.CmdOK an acknowledgement carrying rec ("" for none).
	send(cmd byte, rec string) error
	// refuse writes err as the reply; an err that is not scoped goes
	// out at the fallback code and scope.
	refuse(err error, fallbackCode string, fallbackScope scope.Scope) error
}

type frameLink struct{ sess *wire.Session }

func (l frameLink) recv() (string, error) {
	_, payload, err := l.sess.ReadMsg()
	return string(payload), err
}

func (l frameLink) send(cmd byte, rec string) error {
	return l.sess.WriteMsg(cmd, []byte(rec))
}

func (l frameLink) refuse(err error, code string, sc scope.Scope) error {
	return l.sess.WriteError(err, code, sc)
}

type textLink struct {
	r *bufio.Reader
	w *bufio.Writer
}

func (l textLink) recv() (string, error) {
	line, err := l.r.ReadString('\n')
	return strings.TrimSpace(line), err
}

func (l textLink) send(cmd byte, rec string) error {
	switch {
	case cmd != wire.CmdOK:
		fmt.Fprintln(l.w, rec)
	case rec == "":
		fmt.Fprint(l.w, "ok\n")
	default:
		fmt.Fprintf(l.w, "ok %s\n", rec)
	}
	return l.w.Flush()
}

func (l textLink) refuse(err error, code string, sc scope.Scope) error {
	fmt.Fprint(l.w, wire.EncodeError(err, code, sc))
	return l.w.Flush()
}

// serve authenticates one connection in the server's mode and runs
// the session over the resulting link.
func (s *Server) serve(conn net.Conn) {
	r := bufio.NewReader(conn)
	if s.Mode == wire.ModeText {
		w := bufio.NewWriter(conn)
		if rpc.Challenge(r, w, s.key, scope.New(scope.ScopeLocalResource, CodeAuthFailed, "bad authenticator")) {
			s.session(conn, textLink{r, w})
		}
		return
	}
	sess := wire.NewSession(r, conn, wire.Config{Secret: s.key, AuthFailure: authFailed})
	// session returns only after the subscriber's writer goroutine has
	// exited, so the pooled buffers are released with no writer left.
	defer sess.Release()
	if sess.ServerHandshake() == nil {
		s.session(conn, frameLink{sess})
	}
}

func badRequest(format string, args ...any) *scope.Error {
	return scope.New(scope.ScopeFunction, CodeBadRequest, format, args...)
}

// session dispatches on the connection's first record.
func (s *Server) session(conn net.Conn, l link) {
	rec, err := l.recv()
	if err != nil {
		return
	}
	switch {
	case strings.HasPrefix(rec, "msub "):
		from, err := ParseSub(rec)
		if err != nil {
			l.refuse(badRequest("%v", err), CodeBadRequest, scope.ScopeFunction)
			return
		}
		// Ack before registering the sink: once subscribed, the sink's
		// writer goroutine owns the write half, and a concurrent ack
		// would race it.  A refused subscription (the monitor is dead)
		// follows the ack as an error reply in the stream.
		if l.send(wire.CmdOK, "") != nil {
			return
		}
		sink := newAsyncSink(conn, l.send)
		if err := s.mon.Subscribe(sink, from); err != nil {
			l.refuse(err, CodeMonitorDead, scope.ScopeProcess)
		} else {
			// The stream is one-way from here: this goroutine blocks on
			// the read half, waiting only for the client to hang up.
			// The two halves of a link are independent, so the split
			// is safe.
			for err == nil {
				_, err = l.recv()
			}
			s.mon.Detach(sink)
		}
		sink.Close()
		// Wait for the writer goroutine to flush and exit; the sink's
		// close grace bounds the wait.
		<-sink.done

	case strings.HasPrefix(rec, "madm "):
		for {
			verb, target, err := ParseAdmin(rec)
			if err != nil {
				l.refuse(badRequest("%v", err), CodeBadRequest, scope.ScopeFunction)
				return
			}
			if detail, aerr := s.mon.Admin(verb, target); aerr != nil {
				err = l.refuse(aerr, CodeBadRequest, scope.ScopePool)
			} else {
				err = l.send(wire.CmdOK, EncodeAdminOK(verb, target, detail))
			}
			if err != nil {
				return
			}
			if rec, err = l.recv(); err != nil {
				return
			}
		}

	default:
		// A first record that is neither a subscribe nor an admin
		// request is a bad request, not a silent close.
		l.refuse(badRequest("expected msub or madm, got %q", rec), CodeBadRequest, scope.ScopeFunction)
	}
}

// subscriberQueueDepth bounds the records buffered between the pump
// and one network subscriber's writer goroutine.  A subscriber this
// far behind has stopped reading; it is dropped rather than allowed
// to push TCP backpressure back into the pump.
const subscriberQueueDepth = 1024

// closeFlushGrace bounds the final flush of a closing subscriber: a
// peer that will not drain its tail within the grace loses it when
// the timer closes the connection under the blocked write.  Wall
// clock, deliberately — this is network teardown, never a simulated
// path.
const closeFlushGrace = 5 * time.Second

// sinkRecord is one queued stream record.
type sinkRecord struct {
	cmd  byte
	line string
}

// asyncSink adapts one network subscriber to the Sink interface with
// the decoupling the ops plane's failure scope demands: Deliver
// enqueues into a bounded queue and never touches the network, so a
// subscriber that stops reading cannot stall the pump (and the pool
// stepping loop serialized behind it) via TCP backpressure.  A writer
// goroutine drains the queue; a full queue or a failed write poisons
// the sink permanently, and the pump drops it on the next Deliver.
type asyncSink struct {
	write func(cmd byte, line string) error
	conn  net.Conn
	queue chan sinkRecord
	stop  chan struct{}
	done  chan struct{} // closed when the writer goroutine exits

	mu     sync.Mutex
	closed bool
	failed error
}

func newAsyncSink(conn net.Conn, write func(cmd byte, line string) error) *asyncSink {
	k := &asyncSink{
		write: write,
		conn:  conn,
		queue: make(chan sinkRecord, subscriberQueueDepth),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go k.drain()
	return k
}

// Deliver implements Sink without ever blocking: the record is queued
// for the writer goroutine, and a full queue means the subscriber
// stopped reading long ago — that subscriber fails permanently,
// scoped to its own session.
func (k *asyncSink) Deliver(cmd byte, line string) error {
	k.mu.Lock()
	if k.closed {
		k.mu.Unlock()
		return fmt.Errorf("monitor: subscriber session closed")
	}
	if err := k.failed; err != nil {
		k.mu.Unlock()
		return err
	}
	k.mu.Unlock()
	select {
	case k.queue <- sinkRecord{cmd: cmd, line: line}:
		return nil
	default:
		err := fmt.Errorf("monitor: subscriber fell %d records behind and was dropped",
			subscriberQueueDepth)
		k.fail(err)
		// Closing the connection unblocks the writer mid-write.
		k.conn.Close()
		return err
	}
}

// Close implements Sink: no new records are accepted, and the
// connection closes once the writer flushes what the pump already
// handed over — or when the grace expires, whichever comes first.
// Close never blocks; the monitor calls it under its own lock.
func (k *asyncSink) Close() {
	k.mu.Lock()
	if k.closed {
		k.mu.Unlock()
		return
	}
	k.closed = true
	k.mu.Unlock()
	close(k.stop)
	time.AfterFunc(closeFlushGrace, func() { k.conn.Close() })
}

func (k *asyncSink) fail(err error) {
	k.mu.Lock()
	if k.failed == nil {
		k.failed = err
	}
	k.mu.Unlock()
}

// drain is the writer goroutine — the only place subscriber bytes hit
// the network.  On Close it flushes the queued tail, then closes the
// connection, which also unblocks the serving goroutine's read.
func (k *asyncSink) drain() {
	defer close(k.done)
	defer k.conn.Close()
	for {
		select {
		case <-k.stop:
			// Graceful close: a clean detach or server-side drop must
			// not truncate what the pump already handed over.
			for {
				select {
				case rec := <-k.queue:
					if k.write(rec.cmd, rec.line) != nil {
						return
					}
				default:
					return
				}
			}
		case rec := <-k.queue:
			if err := k.write(rec.cmd, rec.line); err != nil {
				k.fail(err)
				return
			}
		}
	}
}
