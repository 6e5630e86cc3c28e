package rpc

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"github.com/errscope/grid/internal/vfs"
	"github.com/errscope/grid/internal/wire"
)

func TestFieldsKeepsQuotedArgumentsWhole(t *testing.T) {
	cases := []struct {
		line string
		want []string
	}{
		{"", nil},
		{"  \r\n", nil},
		{"quit\n", []string{"quit"}},
		{"pread 3 4096 0\n", []string{"pread", "3", "4096", "0"}},
		{`stat "/dir/a b"` + "\n", []string{"stat", `"/dir/a b"`}},
		{`rename "/c  d" "/e f"`, []string{"rename", `"/c  d"`, `"/e f"`}},
		{`open "/q\"uo te" rw`, []string{"open", `"/q\"uo te"`, "rw"}},
		{`stat "/back\\" x`, []string{"stat", `"/back\\"`, "x"}},
		// Malformed quoting splits as strings.Fields always did.
		{`open "x`, []string{"open", `"x`}},
		{`open "x y`, []string{"open", `"x`, "y"}},
		{`stat "a"b c`, []string{"stat", `"a"b`, "c"}},
		{`stat ab"c d"`, []string{"stat", `ab"c`, `d"`}},
	}
	for _, tc := range cases {
		if got := fields(tc.line); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("fields(%q) = %q, want %q", tc.line, got, tc.want)
		}
	}
}

// Every request line that parsed before the splitter learned about
// quotes parses to the same arguments: with no space inside a quoted
// argument, fields is strings.Fields.
func TestFieldsMatchesStringsFields(t *testing.T) {
	prop := func(verb string, n uint16, path string) bool {
		path = strings.ReplaceAll(path, " ", "_")
		line := strings.Join([]string{verb, wire.Quote(path), wire.Quote(path + "2")}, " ") + " " + strings.Repeat("7", int(n%5)+1) + "\n"
		return reflect.DeepEqual(fields(line), strings.Fields(line))
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestArgs(t *testing.T) {
	verb, a := ParseRequest(`op "/a b" -12 34 raw` + "\n")
	if verb != "op" {
		t.Fatalf("verb = %q", verb)
	}
	if p, off, n, raw := a.Path(), a.Int64("offset"), a.Int("length"), a.Next("flags"); p != "/a b" || off != -12 || n != 34 || raw != "raw" {
		t.Errorf("decoded %q %d %d %q", p, off, n, raw)
	}
	if err := a.Done(); err != nil {
		t.Errorf("Done = %v", err)
	}
	if verb, a := ParseRequest("\n"); verb != "" || a.Done() != nil {
		t.Errorf("empty line = %q, %v", verb, a.Done())
	}

	refused := []struct{ line, want string }{
		{"op\n", "missing path"},
		{"op unquoted\n", "bad path encoding"},
		{`op "/p"` + "\n", "missing offset"},
		{`op "/p" 1x` + "\n", `bad offset "1x"`},
		{`op "/p" 1 99999999999999999999` + "\n", "bad length"},
		{`op "/p" 1 2 extra` + "\n", "too many arguments"},
	}
	for _, tc := range refused {
		_, a := ParseRequest(tc.line)
		a.Path()
		a.Int64("offset")
		// The first failure sticks: it and later reads are zero.
		if n := a.Int("length"); n != 0 && tc.want != "too many arguments" {
			t.Errorf("%q: length %d after a failed argument", tc.line, n)
		}
		if err := a.Done(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: Done = %v, want %q", tc.line, err, tc.want)
		}
	}
}

func TestInfoEncodings(t *testing.T) {
	infos := []vfs.Info{
		{Path: "/plain", Size: 12},
		{Path: "/dir/c  d", Size: 0, ReadOnly: true},
		{Path: `/q"uote and space`, Size: 1 << 40},
		{Path: "/tab\there\nnewline", Size: 3},
	}
	for _, info := range infos {
		got, err := parseInfo(InfoLine(info))
		if err != nil || got != info {
			t.Errorf("text round trip of %+v = %+v, %v", info, got, err)
		}
		cur := wire.NewCursor(AppendInfo(nil, info, true))
		if got := readInfo(&cur, true); got != info || !cur.Done() {
			t.Errorf("framed round trip of %+v = %+v", info, got)
		}
	}
	cur := wire.NewCursor(AppendInfos(nil, infos)[4:])
	for _, info := range infos {
		if got := readInfo(&cur, false); got != info {
			t.Errorf("framed list entry = %+v, want %+v", got, info)
		}
	}
	if !cur.Done() {
		t.Error("framed list has trailing bytes")
	}
	for _, bad := range []string{"", "12", "12 0", "x 0 \"/p\"", "12 y \"/p\"", "12 0 /p", "12 0 \"/p\" extra", "12  0 \"/p\""} {
		if _, err := parseInfo(bad); err == nil {
			t.Errorf("parseInfo(%q) accepted", bad)
		}
	}

	rp := ListReply(infos[:2], nil)
	if want := "12 0 \"/plain\"\n0 1 \"/dir/c  d\"\n"; rp.Value != "2" || string(rp.Data) != want || rp.Err != nil {
		t.Errorf("ListReply = %q %q %v", rp.Value, rp.Data, rp.Err)
	}
}
