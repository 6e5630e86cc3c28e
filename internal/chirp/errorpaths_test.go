package chirp

import (
	"strconv"
	"strings"
	"testing"

	"github.com/errscope/grid/internal/rpc"
	"github.com/errscope/grid/internal/scope"
)

// TestServerErrorPaths drives the rarely-hit error branches of the
// request handlers with a raw protocol session and checks the server
// answers an error line (and stays alive) for each.
func TestServerErrorPaths(t *testing.T) {
	fs, srv, addr := startServer(t, "k")
	fs.WriteFile("/f", []byte("x"))
	var faults []error
	srv.ErrorLog = func(err error) { faults = append(faults, err) }

	raw, err := dialRaw(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.close()
	if resp := raw.send("cookie \"k\"\n"); !strings.HasPrefix(resp, "ok") {
		t.Fatalf("auth: %q", resp)
	}

	cases := []struct {
		req  string
		want string
	}{
		{"rename \"/f\"\n", CodeBadRequest},            // arity
		{"rename bad \"/y\"\n", CodeBadRequest},        // unquoted old path
		{"rename \"/f\" bad\n", CodeBadRequest},        // unquoted new path
		{"rename \"/ghost\" \"/y\"\n", "FileNotFound"}, // backend error
		{"unlink\n", CodeBadRequest},                   // arity
		{"unlink bad\n", CodeBadRequest},               // unquoted path
		{"stat\n", CodeBadRequest},                     // arity
		{"stat bad\n", CodeBadRequest},                 // unquoted path
		{"stat \"/ghost\"\n", "FileNotFound"},          // backend error
		{"getdir bad\n", CodeBadRequest},               // unquoted prefix
		{"open \"/f\"\n", CodeBadRequest},              // arity
		{"open \"/f\" q\n", CodeBadRequest},            // bad flags
		{"pread 3 1\n", CodeBadRequest},                // arity
		{"lseek 3 0\n", CodeBadRequest},                // arity
		{"close\n", CodeBadRequest},                    // missing fd
		{"close notanumber\n", CodeBadRequest},         // bad fd
	}
	for _, c := range cases {
		resp := raw.send(c.req)
		if !strings.HasPrefix(resp, "error ") || !strings.Contains(resp, c.want) {
			t.Errorf("%q -> %q, want error containing %q", strings.TrimSpace(c.req), resp, c.want)
		}
	}
	// The session is still alive and functional.
	if resp := raw.send("stat \"/f\"\n"); !strings.HasPrefix(resp, "ok ") {
		t.Errorf("session dead after error traffic: %q", resp)
	}
	// Quit ends politely.
	if resp := raw.send("quit\n"); !strings.HasPrefix(resp, "ok") {
		t.Errorf("quit: %q", resp)
	}
}

// TestServerWriteFramingSurvivesBadFD is the regression for the
// protocol-desync bug: a write naming an fd that is not open still
// carries its declared payload on the wire.  The server must consume
// those bytes before replying, or the next request line would be
// parsed out of the middle of the payload.
func TestServerWriteFramingSurvivesBadFD(t *testing.T) {
	fs, _, addr := startServer(t, "k")
	fs.WriteFile("/f", []byte("x"))
	raw, err := dialRaw(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.close()
	if resp := raw.send("cookie \"k\"\n"); !strings.HasPrefix(resp, "ok") {
		t.Fatalf("auth: %q", resp)
	}
	// The payload "stat" is chosen adversarially: if the server fails
	// to consume it, the next parse would see a valid-looking verb.
	for _, req := range []string{
		"write 99 4\nstat",
		"pwrite 99 4 0\nstat",
		"pwrite 3 4 notanoffset\nstat", // payload read, then offset rejected
	} {
		resp := raw.send(req)
		if !strings.HasPrefix(resp, "error ") {
			t.Fatalf("%q -> %q, want an error line", req, resp)
		}
		// The session must still be framed: the next command parses
		// and succeeds.
		if resp := raw.send("stat \"/f\"\n"); !strings.HasPrefix(resp, "ok ") {
			t.Fatalf("session desynchronized after %q: stat -> %q", req, resp)
		}
	}
}

// TestServerWriteOversizedLengthKeepsSession: a parseable length past
// the payload limit is a refusal, not a teardown — the framing is
// intact, so the server discards exactly the declared bytes and keeps
// serving.
func TestServerWriteOversizedLengthKeepsSession(t *testing.T) {
	fs, _, addr := startServer(t, "k")
	fs.WriteFile("/f", []byte("x"))
	raw, err := dialRaw(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.close()
	if resp := raw.send("cookie \"k\"\n"); !strings.HasPrefix(resp, "ok") {
		t.Fatalf("auth: %q", resp)
	}
	over := rpc.MaxData + 3
	payload := strings.Repeat("a", over)
	resp := raw.send("write 3 " + strconv.Itoa(over) + "\n" + payload)
	if !strings.HasPrefix(resp, "error ") || !strings.Contains(resp, CodeBadRequest) {
		t.Fatalf("oversized write -> %q, want %s", resp, CodeBadRequest)
	}
	if resp := raw.send("stat \"/f\"\n"); !strings.HasPrefix(resp, "ok ") {
		t.Fatalf("session dead after oversized write: %q", resp)
	}
	// An unparseable length, by contrast, still tears the session
	// down: there is no way to know how many bytes follow.
	resp = raw.send("write 3 notanumber\n")
	if !strings.Contains(resp, CodeBadRequest) {
		t.Fatalf("unparseable length -> %q", resp)
	}
	if resp := raw.send("stat \"/f\"\n"); resp != "" {
		t.Fatalf("connection should be closed after unframed write, got %q", resp)
	}
}

// TestServerLogsConnectionFaults exercises the ErrorLog path for an
// unframed write, which tears the connection down.
func TestServerLogsConnectionFaults(t *testing.T) {
	_, srv, addr := startServer(t, "k")
	logged := make(chan error, 1)
	srv.ErrorLog = func(err error) {
		select {
		case logged <- err:
		default:
		}
	}
	raw, err := dialRaw(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.close()
	raw.send("cookie \"k\"\n")
	// Bad length: the server cannot re-frame the stream and must
	// drop the connection after answering.
	resp := raw.send("write 3 notanumber\n")
	if !strings.Contains(resp, CodeBadRequest) {
		t.Fatalf("resp = %q", resp)
	}
	select {
	case err := <-logged:
		if scope.ScopeOf(err) != scope.ScopeNetwork {
			t.Errorf("logged fault = %v", err)
		}
	default:
		// The log may race the response read; poll briefly.
	}
}
