package rpc

import (
	"bufio"
	"errors"
	"net"
	"slices"
	"strings"
	"testing"

	"github.com/errscope/grid/internal/scope"
	"github.com/errscope/grid/internal/vfs"
	"github.com/errscope/grid/internal/wire"
)

// A table over every argument kind and reply shape, with text and
// frame orders that differ, served by the generic walkers alone.

type opState struct {
	saw    Req // the arguments of the last request a handler ran
	closed bool
}

// recorded is a handler that records its arguments, then replies.
func recorded(reply func(q *Req) error) func(*opState, *Req) error {
	return func(st *opState, q *Req) error {
		st.saw = Req{Int: q.Int, Str: q.Str, Data: slices.Clone(q.Data)}
		return reply(q)
	}
}

const opQuit = 0xCF

func testTable() *Table[*opState] {
	return &Table[*opState]{BadRequest: "BadRequest", Fallback: "Fallback",
		Gate: func(st *opState, framed bool) error {
			if st.closed {
				return scope.New(scope.ScopeLocalResource, "Closed", "closed (framed %t)", framed)
			}
			return nil
		},
		Ops: []Op[*opState]{
			Row(0xC0, "put", U32, recorded(func(q *Req) error { q.N = int64(len(q.Data)); return nil }),
				At(Path, 1), At(Offset, 0), At(Data, 2)),
			Row(0xC1, "get", Bytes, recorded(func(q *Req) error {
				q.Out = append(q.Out, strings.Repeat(q.Str[0], int(q.Int[2]))...)
				return nil
			}), At(Path, 2), At(Offset, 0), At(Length, 1)),
			Row(0xC2, "seek", I64, recorded(func(q *Req) error { q.N = q.Int[1] - q.Int[0]; return nil }),
				At(FD, 0), At(Offset, 2), At(Whence, 1)),
			Row(0xC3, "open", U32, recorded(func(q *Req) error { q.N = q.Int[1]; return nil }),
				At(Path, 1), Arg{Kind: Flags, Letters: "rwc"}),
			Row(0xC4, "stat", Stat, recorded(func(q *Req) error { q.Info = vfs.Info{Path: q.Str[0], Size: 7, ReadOnly: true}; return nil }),
				At(Path, 0)),
			Row(0xC5, "list", List, recorded(func(q *Req) error {
				q.List = []vfs.Info{{Path: q.Str[0] + "/a b", Size: 1}, {Path: q.Str[0] + `/"q"`}}
				return nil
			}), At(Path, 0)),
			Row(0xC6, "mv", None, recorded(func(q *Req) error { return nil }), At(Path, 0), At(Path, 1)),
			Row(0xC7, "fail", None, recorded(func(q *Req) error { return errors.New("plain") }), At(Path, 0)),
		}}
}

// servePipe serves tbl over a pipe in mode and returns a client.
func servePipe(t *testing.T, tbl *Table[*opState], st *opState, mode wire.Mode) *Client {
	cc, sc := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer sc.Close()
		r, w := bufio.NewReader(sc), bufio.NewWriter(sc)
		var q Req
		if mode == wire.ModeText {
			ServeText(r, w, func(verb string, a *Args) (bool, error) { return true, tbl.Text(st, &q, verb, a, r, w) })
			return
		}
		ServeFramed(r, sc, wire.Config{Secret: testSecret}, opQuit, tbl.Fallback,
			func(cmd byte, pl []byte) ([]byte, error) { return tbl.Frame(st, &q, cmd, pl) })
	}()
	c, err := NewClient(&testProto, cc, DialOptions{Mode: mode}, testSecret, func(*Client) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Quit(opQuit); <-done })
	return c
}

func TestOpTableRoundTripsEveryMode(t *testing.T) {
	const path = `/dir/a "b" é`
	cases := []struct {
		verb string
		in   Req
		want Req // the reply fields
	}{
		{"put", Req{Str: [3]string{path}, Int: [3]int64{1: -5}, Data: []byte("da ta\n")}, Req{N: 6}},
		{"get", Req{Str: [3]string{"ab"}, Int: [3]int64{1: 9, 2: 3}}, Req{Out: []byte("ababab")}},
		{"seek", Req{Int: [3]int64{4, 1 << 40, 2}}, Req{N: 1<<40 - 4}},
		{"open", Req{Str: [3]string{path}, Int: [3]int64{1: 5}}, Req{N: 5}},
		{"open", Req{Str: [3]string{""}}, Req{}},
		{"stat", Req{Str: [3]string{path}}, Req{Info: vfs.Info{Path: path, Size: 7, ReadOnly: true}}},
		{"list", Req{Str: [3]string{"/d"}}, Req{List: []vfs.Info{{Path: "/d/a b", Size: 1}, {Path: `/d/"q"`}}}},
		{"mv", Req{Str: [3]string{path, "/x y"}}, Req{}},
	}
	tbl := testTable()
	for _, mode := range []wire.Mode{wire.ModeText, wire.ModeBinary, wire.ModeSecure} {
		st := &opState{}
		c := servePipe(t, tbl, st, mode)
		for _, tc := range cases {
			q := tc.in
			if err := c.Invoke(&tbl.Verb(tc.verb).Spec, &q); err != nil {
				t.Fatalf("%s %s: %v", mode, tc.verb, err)
			}
			if st.saw.Int != tc.in.Int || st.saw.Str != tc.in.Str || string(st.saw.Data) != string(tc.in.Data) {
				t.Errorf("%s %s: the handler saw %+v, sent %+v", mode, tc.verb, st.saw, tc.in)
			}
			if q.N != tc.want.N || string(q.Out) != string(tc.want.Out) || q.Info != tc.want.Info || !slices.Equal(q.List, tc.want.List) {
				t.Errorf("%s %s: reply %+v, want %+v", mode, tc.verb, q, tc.want)
			}
		}
		// An unscoped handler error goes out at the fallback code and
		// local-resource scope; the gate refuses before decoding.
		if se, _ := scope.AsError(c.Invoke(&tbl.Verb("fail").Spec, &Req{})); se == nil || se.Code != "Fallback" || se.Scope != scope.ScopeLocalResource {
			t.Errorf("%s: unscoped error came back as %v", mode, se)
		}
		st.closed = true
		if se, _ := scope.AsError(c.Invoke(&tbl.Verb("stat").Spec, &Req{})); se == nil || se.Code != "Closed" {
			t.Errorf("%s: gate refusal came back as %v", mode, se)
		}
	}
}

// text runs one request line, with rest as the bytes after it, and
// returns the reply written and the fatal error.
func text(tbl *Table[*opState], line, rest string) (string, error) {
	var sb strings.Builder
	r, w := bufio.NewReader(strings.NewReader(rest)), bufio.NewWriter(&sb)
	verb, a := ParseRequest(line)
	var q Req
	fatal := tbl.Text(&opState{}, &q, verb, a, r, w)
	w.Flush()
	return sb.String(), fatal
}

func TestOpTableTextRefusals(t *testing.T) {
	tbl := testTable()
	cases := []struct{ line, rest, want string }{
		{"", "", `"empty request"`},
		{"bogus 1", "", `"unknown verb \"bogus\""`},
		{"seek 1 2", "", `"seek: missing whence"`},
		{"seek x 2", "", `"seek: bad fd \"x\""`},
		{"seek 1 2 3 4", "", `"seek: too many arguments"`},
		{`get "/p" 0 -1`, "", `"get: bad length -1"`},
		{"get /p 0 1", "", `"get: bad path encoding \"/p\""`},
		{`open "/p" rz`, "", `"open: bad flags \"rz\""`},
		{`open "/p" -`, "", "ok 0\n"},
		{`put "/p" x 4`, "abcd", `"put: bad offset \"x\""`},
		{`put "/p" 0 16777219`, strings.Repeat("a", MaxData+3), `"length 16777219 exceeds limit 16777216"`},
	}
	for _, tc := range cases {
		reply, fatal := text(tbl, tc.line, tc.rest)
		if fatal != nil || !strings.Contains(reply, tc.want) {
			t.Errorf("%q -> %q, %v; want %s", tc.line, reply, fatal, tc.want)
		}
	}
	// A length that does not parse loses the framing; a payload cut
	// short is a lost connection.
	for _, tc := range []struct{ line, rest, reply, code string }{
		{`put "/p" 0 x`, "", "put: bad length", "ProtocolError"},
		{`put "/p" 0`, "", "put: bad length", "ProtocolError"},
		{`put "/p" 0 9`, "abc", "", wire.CodeConnectionLostName},
		{`put "/p" 0 99999999`, "abc", "", wire.CodeConnectionLostName},
	} {
		reply, fatal := text(tbl, tc.line, tc.rest)
		if se, _ := scope.AsError(fatal); se == nil || se.Code != tc.code || se.Scope != scope.ScopeNetwork || !strings.Contains(reply, tc.reply) {
			t.Errorf("%q -> %q, %v; want %q and a fatal %s", tc.line, reply, fatal, tc.reply, tc.code)
		}
	}
}

func TestOpTableFrameRefusals(t *testing.T) {
	tbl := testTable()
	for _, tc := range []struct {
		cmd  byte
		pl   []byte
		want string
	}{
		{0xBF, nil, "unknown command 0xbf"},
		{0xC8, nil, "unknown command 0xc8"},
		{0xC2, []byte{0, 0, 0, 1, 2}, "seek: short payload"},
		{0xC2, append(wire.AppendI64([]byte{0, 0, 0, 1, 2}, 3), 9), "seek: trailing bytes"},
		{0xC1, append(wire.AppendU32(wire.AppendI64(nil, 0), MaxData+1), "/p"...), "get: bad length 16777217"},
		{0xC0, append(wire.AppendI64(nil, 0), 0, 9, '/'), "put: short payload"},
	} {
		var q Req
		_, err := tbl.Frame(&opState{}, &q, tc.cmd, tc.pl)
		if se, _ := scope.AsError(err); se == nil || se.Code != "BadRequest" || se.Scope != scope.ScopeFunction || se.Message != tc.want {
			t.Errorf("frame %#x %q -> %v, want %q", tc.cmd, tc.pl, err, tc.want)
		}
	}
}
