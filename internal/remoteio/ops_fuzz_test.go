package remoteio

import (
	"bufio"
	"bytes"
	"net"
	"slices"
	"strings"
	"testing"

	"github.com/errscope/grid/internal/rpc"
	"github.com/errscope/grid/internal/scope"
	"github.com/errscope/grid/internal/vfs"
	"github.com/errscope/grid/internal/wire"
)

// The fuzz targets over the op table.  FuzzOpEncodings sends one
// request through each row in text and in frame mode, from the
// client's encoder to the handler and back, and wants the handler to
// see the same arguments and the client to get the same reply.
// FuzzOpGarbage feeds arbitrary bytes to both decoders.
//
//	go test ./internal/remoteio -run xxx -fuzz '^FuzzOpEncodings$' -fuzztime 30s

var awkwardFuzzPaths = []string{"/f", "/dir/a b", `/q"uo te`, "/café ☃", ""}

// fuzzShadow is a shadow over a small file system.
func fuzzShadow(t *testing.T) *Server {
	fs := vfs.New()
	for _, p := range []string{"/f", "/dir/a b", `/q"uo te`} {
		if err := fs.WriteFile(p, []byte("hello, table")); err != nil {
			t.Fatal(err)
		}
	}
	return NewServer(fs, []byte("k"))
}

// tableArgs spreads the fuzzer's values over a row's arguments, each
// inside what its kind can carry in both encodings.
func tableArgs(sp *rpc.Spec, ints [3]int64, strs [2]string, data []byte) rpc.Req {
	var q rpc.Req
	for i, a := range sp.Args {
		switch v := ints[i]; a.Kind {
		case rpc.FD, rpc.Length:
			q.Int[i] = int64(uint32(v))
		case rpc.Whence:
			q.Int[i] = int64(uint8(v))
		case rpc.Flags:
			q.Int[i] = v & (1<<len(a.Letters) - 1)
		case rpc.Path:
			q.Str[i] = strs[min(i, 1)]
		case rpc.Data:
			q.Data = data
		default:
			q.Int[i] = v
		}
	}
	return q
}

// pipeTable serves tbl on one end of a pipe, in mode, and returns a
// client on the other end; cleanup quits and waits for the server.
func pipeTable[S any](t *testing.T, tbl *rpc.Table[S], s S, mode wire.Mode, quit byte) *rpc.Client {
	cc, sc := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer sc.Close()
		r, w := bufio.NewReader(sc), bufio.NewWriter(sc)
		var q rpc.Req
		if mode == wire.ModeText {
			rpc.ServeText(r, w, func(verb string, a *rpc.Args) (bool, error) { return true, tbl.Text(s, &q, verb, a, r, w) })
			return
		}
		rpc.ServeFramed(r, sc, wire.Config{Secret: []byte("k")}, quit, tbl.Fallback,
			func(cmd byte, pl []byte) ([]byte, error) { return tbl.Frame(s, &q, cmd, pl) })
	}()
	c, err := rpc.NewClient(&proto, cc, rpc.DialOptions{Mode: mode}, []byte("k"), func(*rpc.Client) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Quit(quit); <-done })
	return c
}

// recording is tbl with every handler recording the arguments it is
// called with.
func recording[S any](tbl rpc.Table[S], saw *rpc.Req) *rpc.Table[S] {
	tbl.Ops = slices.Clone(tbl.Ops)
	for i := range tbl.Ops {
		run := tbl.Ops[i].Run
		tbl.Ops[i].Run = func(s S, q *rpc.Req) error {
			*saw = rpc.Req{Int: q.Int, Str: q.Str, Data: bytes.Clone(q.Data)}
			return run(s, q)
		}
	}
	return &tbl
}

// outcome is what one encoding made of a request.
type outcome struct {
	saw, got rpc.Req
	err      string
}

func FuzzOpEncodings(f *testing.F) {
	for row := range ops.Ops {
		for _, p := range awkwardFuzzPaths {
			f.Add(uint8(row), int64(3), int64(1), int64(2), p, "/dir/a b", []byte("da ta\n"))
			f.Add(uint8(row), int64(0), int64(1), int64(5), p, "/f", []byte(nil))
		}
	}
	f.Fuzz(func(t *testing.T, row uint8, a, b, c int64, s1, s2 string, data []byte) {
		sp := &ops.Ops[int(row)%len(ops.Ops)].Spec
		in := tableArgs(sp, [3]int64{a, b, c}, [2]string{s1, s2}, data)
		var out [2]outcome
		for m, mode := range []wire.Mode{wire.ModeText, wire.ModeBinary} {
			o := &out[m]
			o.got = in
			if err := pipeTable(t, recording(ops, &o.saw), fuzzShadow(t), mode, rioQuit).Invoke(sp, &o.got); err != nil {
				o.err = err.Error()
			}
		}
		text, frame := out[0], out[1]
		if text.saw.Int != frame.saw.Int || text.saw.Str != frame.saw.Str || !bytes.Equal(text.saw.Data, frame.saw.Data) {
			t.Fatalf("%s: the handler saw\n text  %+v\n frame %+v", sp.Verb, text.saw, frame.saw)
		}
		if text.err != frame.err || text.got.N != frame.got.N || !bytes.Equal(text.got.Out, frame.got.Out) ||
			text.got.Info != frame.got.Info || !slices.Equal(text.got.List, frame.got.List) {
			t.Fatalf("%s: the client got\n text  %+v %q\n frame %+v %q", sp.Verb, text.got, text.err, frame.got, frame.err)
		}
	})
}

// refusedInScope fails on a reply at network scope, or on a malformed
// request refused at any scope but function's.
func refusedInScope(t *testing.T, what string, err error) {
	t.Helper()
	se, ok := scope.AsError(err)
	if err != nil && (!ok || se.Scope == scope.ScopeNetwork || se.Code == CodeBadRequest && se.Scope != scope.ScopeFunction) {
		t.Fatalf("%s: refused as %v", what, err)
	}
}

func FuzzOpGarbage(f *testing.F) {
	for _, op := range ops.Ops {
		f.Add(op.Verb+` "/f" 0 5`+"\n", op.Code, append(wire.AppendU32(wire.AppendI64(nil, 0), 5), "/f"...))
		f.Add(op.Verb+` "/dir/a b" "/f"`+"\n", op.Code, wire.AppendStr(nil, "/dir/a b"))
	}
	for i, rq := range remoteioTextRefusals {
		if fr := remoteioFrameRefusals[i%len(remoteioFrameRefusals)]; rq.pad == 0 {
			f.Add(rq.text, fr.cmd, fr.pl)
		}
	}
	f.Fuzz(func(t *testing.T, text string, cmd byte, pl []byte) {
		// A text line, and whatever follows it as the next bytes on
		// the wire: only a write that loses its framing may end the
		// session, and a short payload is a lost connection.
		line, rest, _ := strings.Cut(text, "\n")
		var sb strings.Builder
		r, w := bufio.NewReader(strings.NewReader(rest)), bufio.NewWriter(&sb)
		verb, a := rpc.ParseRequest(line)
		var q rpc.Req
		fatal := ops.Text(fuzzShadow(t), &q, verb, a, r, w)
		w.Flush()
		if se, ok := scope.AsError(fatal); fatal != nil && (!ok || se.Code != "ProtocolError" && se.Code != CodeConnectionLost) {
			t.Fatalf("text %q: fatal %v", text, fatal)
		}
		if reply := sb.String(); reply != "" && !strings.HasPrefix(reply, "ok") {
			se, err := wire.DecodeError(strings.TrimPrefix(strings.TrimSuffix(reply, "\n"), "error "))
			if err != nil {
				t.Fatalf("text %q: reply %q", text, reply)
			}
			refusedInScope(t, "text "+text, se)
		}

		// A frame, on a framed session that must keep serving.
		if cmd == rioQuit {
			return
		}
		c := pipeTable(t, &ops, fuzzShadow(t), wire.ModeBinary, rioQuit)
		_, err := c.CallBin(nil, cmd, pl)
		refusedInScope(t, "frame", err)
		// The garbage may have unlinked /f, so any explicit answer
		// shows the session serving.
		q = rpc.Req{Str: [3]string{"/f"}}
		if err := c.Invoke(&ops.Verb("stat").Spec, &q); scope.ScopeOf(err) == scope.ScopeNetwork {
			t.Fatalf("frame %#x %q: the session then answers stat with %v", cmd, pl, err)
		}
	})
}
