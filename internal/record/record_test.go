package record

import (
	"fmt"
	"hash/crc32"
	"strconv"
	"strings"
	"testing"
)

// TestAppendQuoteMatchesStrconv pins the fast quoter to
// strconv.AppendQuote byte-for-byte, across the fast ASCII path, every
// escaped byte, and the non-ASCII fallback.
func TestAppendQuoteMatchesStrconv(t *testing.T) {
	cases := []string{
		"", "plain", "with space", `has "quotes" inside`, `back\slash`,
		"line1\nline2", "tab\there", "cr\rhere", "mixed\n\"x\\y\"\t",
		"unicode: héllo", "control: \x01\x02", "bell\a", "del\x7f",
		"status = exited\nexit_code = 0\nend = ok\n",
	}
	for _, s := range cases {
		got := string(AppendQuote(nil, s))
		want := string(strconv.AppendQuote(nil, s))
		if got != want {
			t.Errorf("AppendQuote(%q) = %s, want %s", s, got, want)
		}
	}
}

// TestFieldCursorAllocatesNothing: scanning a line and reading its
// numbers, flags and empty strings through the reused cursor touches
// the heap not at all; only a non-empty string value is copied out.
func TestFieldCursorAllocatesNothing(t *testing.T) {
	line := []byte(`id=12 machine="c0001" start=123456789012 end=-5 cpu=300000000000 evicted=false pre=true fetch="" lost=""`)
	var c Cursor
	if n := testing.AllocsPerRun(100, func() {
		if err := c.Scan(line); err != nil {
			t.Fatal(err)
		}
		sum := c.Int("id") + c.Int("start") + c.Int("end") + c.Int("cpu")
		if _, ok := c.Get("pre"); !ok || sum == 0 || c.Bool("evicted") || !c.Bool("pre") || c.Str("fetch") != "" || c.Err != nil {
			t.Fatal("misread", c.Err)
		}
	}); n != 0 {
		t.Errorf("cursor allocated %v times per line", n)
	}
}

// TestCursorFields: the walk sees every field in line order,
// duplicates and unknown keys included, while lookup takes the last.
func TestCursorFields(t *testing.T) {
	var c Cursor
	if err := c.Scan([]byte(`a=1  b="x y" a=2 =z`)); err != nil {
		t.Fatal(err)
	}
	var got []string
	for i := 0; i < c.Len(); i++ {
		k, v := c.Field(i)
		got = append(got, string(k)+"|"+string(v))
	}
	if want := []string{"a|1", `b|"x y"`, "a|2", "|z"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("fields %q, want %q", got, want)
	}
	if c.Int("a") != 2 || c.Str("b") != "x y" || c.Err != nil {
		t.Errorf("lookup: a=%d b=%q err=%v", c.Int("a"), c.Str("b"), c.Err)
	}
	for _, bad := range []struct{ line, want string }{
		{`a=1 b`, `no '=' in "b"`},
		{`a="x`, `unterminated quote for "a"`},
	} {
		if err := c.Scan([]byte(bad.line)); err == nil || err.Error() != bad.want {
			t.Errorf("Scan(%q) = %v, want %s", bad.line, err, bad.want)
		}
	}
	for _, bad := range []struct {
		line string
		read func()
		want string
	}{
		{`a=x`, func() { c.Int("c") }, `missing field "c"`},
		{`c=1_0`, func() { c.Int("c") }, `field "c": strconv.ParseInt: parsing "1_0": invalid syntax`},
		{`c=yes`, func() { c.Bool("c") }, `field "c": strconv.ParseBool: parsing "yes": invalid syntax`},
		{`c=bare`, func() { c.Str("c") }, `field "c": invalid syntax`},
		{`c="\q"`, func() { c.Str("c") }, `field "c": invalid syntax`},
	} {
		if err := c.Scan([]byte(bad.line)); err != nil {
			t.Fatal(err)
		}
		if bad.read(); fmt.Sprint(c.Err) != bad.want {
			t.Errorf("%q: %v, want %s", bad.line, c.Err, bad.want)
		}
	}
}

// line is a sealed test record built the way every sealed codec builds
// its lines.
func line(fields func([]byte) []byte) string {
	buf := Buffer()
	return Seal(buf, fields(append(*buf, "rec"...)))
}

func TestSealIsCRC32OverTheRecord(t *testing.T) {
	got := line(func(b []byte) []byte { return AppendStr(AppendInt(b, "n", -7), "s", "x y") })
	body := `rec n=-7 s="x y"`
	if want := fmt.Sprintf("%s crc=%08x", body, crc32.ChecksumIEEE([]byte(body))); got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
	if b := string(AppendBool(nil, "ok", true)); b != " ok=true" {
		t.Errorf("AppendBool: %q", b)
	}
}

// read parses a test record "rec n=<int> s=<str>", trailer first.
func read(s string) (int64, string, error) {
	r := NewReader("t: ", s)
	r.Tag("rec", "a test record")
	r.Unseal()
	n, v := r.Int("n"), r.Str("s")
	return n, v, r.End()
}

func reseal(body string) string {
	return fmt.Sprintf("%s crc=%08x", body, crc32.ChecksumIEEE([]byte(body)))
}

// TestReaderErrors pins the strict grammar's verdicts and error texts,
// field by field and trailer by trailer.
func TestReaderErrors(t *testing.T) {
	good := line(func(b []byte) []byte { return AppendStr(AppendInt(b, "n", 42), "s", "a\tb") })
	if n, v, err := read(good); err != nil || n != 42 || v != "a\tb" {
		t.Fatalf("read(%q) = %d %q %v", good, n, v, err)
	}
	for _, c := range []struct{ in, want string }{
		{"rec", `t: not a test record: "rec"`},
		{"rec n=1 s=\"x\"", `t: record has no crc trailer: "rec n=1 s=\"x\""`},
		{"rec n=1 s=\"x\" crc=123", `t: crc "123" is not 8 hex digits`},
		{"rec n=1 s=\"x\" crc=0000000G", `t: non-canonical crc="0000000G"`},
		{"rec n=1 s=\"x\" crc=00000000", `t: crc mismatch: record says 00000000, bytes say `},
		{reseal(`rec n=1 s="x" `), `t: space before the crc trailer: `},
		{reseal(`rec n=1`), `t: expected s= at ""`},
		{reseal(`rec m=1 s="x"`), `t: expected n= at "m=1 s=\"x\""`},
		{reseal(`rec n=1  s="x"`), `t: expected s= at " s=\"x\""`},
		{reseal(`rec n=x s="x"`), `t: field n: strconv.ParseInt: parsing "x": invalid syntax`},
		{reseal(`rec n=+1 s="x"`), `t: non-canonical n="+1"`},
		{reseal(`rec n=-0 s="x"`), `t: non-canonical n="-0"`},
		{reseal(`rec n=007 s="x"`), `t: non-canonical n="007"`},
		{reseal(`rec n=1 s=x`), `t: field s: invalid syntax`},
		{reseal(`rec n=1 s="x`), `t: field s: invalid syntax`},
		{reseal(`rec n=1 s="\x41"`), `t: non-canonical s="\x41"`},
		{reseal(`rec n=1 s="x"y`), `t: expected space after s at "y"`},
		{reseal(`rec n=1 s="x" y`), `t: trailing bytes " y"`},
	} {
		_, _, err := read(c.in)
		if err == nil || !strings.HasPrefix(err.Error(), c.want) {
			t.Errorf("read(%q) = %v, want %s", c.in, err, c.want)
		}
	}
	for _, s := range []string{"0", "-1", "9223372036854775807", "-9223372036854775808"} {
		if n, _, err := read(reseal(`rec n=` + s + ` s=""`)); err != nil || strconv.FormatInt(n, 10) != s {
			t.Errorf("n=%s: %d %v", s, n, err)
		}
	}
}

// TestReaderFieldsFirst: a record that reads its fields before its
// trailer reports a damaged field as that field's error, and still
// needs the trailer to follow the last field exactly.
func TestReaderFieldsFirst(t *testing.T) {
	parse := func(s string) error {
		r := NewReader("t: ", s)
		r.Tag("rec", "a test record")
		r.Int("n")
		r.Unseal()
		return r.End()
	}
	good := line(func(b []byte) []byte { return AppendInt(b, "n", 5) })
	if err := parse(good); err != nil {
		t.Fatal(err)
	}
	damaged := strings.Replace(good, "n=5", "n=\x15", 1)
	if err := parse(damaged); err == nil || err.Error() != `t: field n: strconv.ParseInt: parsing "\x15": invalid syntax` {
		t.Errorf("damaged field: %v", err)
	}
	for _, s := range []string{reseal("rec n=5 "), reseal("rec n=5 x"), "rec n=5"} {
		if err := parse(s); err == nil {
			t.Errorf("%q parsed", s)
		}
	}
}

// TestCursorAppendUsed: the copy of a line is the fields its decoder
// read, as written and in line order — not the keys nobody asked for,
// nor the duplicates that lost.
func TestCursorAppendUsed(t *testing.T) {
	var c Cursor
	if err := c.Scan([]byte(`op=x  id=7 junk="a b" name="café" id=9 pad=1`)); err != nil {
		t.Fatal(err)
	}
	c.Get("op")
	c.Int("id")
	c.Get("name")
	c.Get("absent")
	if got, want := string(c.AppendUsed([]byte("> "))), `> op=x name="café" id=9`; got != want {
		t.Errorf("AppendUsed = %q, want %q", got, want)
	}
	if err := c.Scan([]byte("op=y id=1")); err != nil {
		t.Fatal(err)
	}
	if got := c.AppendUsed(nil); len(got) != 0 {
		t.Errorf("a fresh Scan keeps %q used", got)
	}
}
