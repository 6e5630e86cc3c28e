package jvm

import (
	"os"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/errscope/grid/internal/scope"
)

func TestProgramCodecRoundTrip(t *testing.T) {
	progs := []*Program{
		nil,
		WellBehaved(time.Minute),
		ExitWith(3, 250*time.Millisecond),
		NullPointer(),
		MemoryHog(64 << 20),
		CorruptImage(),
		ReadsInput("/home/user/in.dat", 4096),
		{
			Class: "Spaced Out",
			Steps: []Step{
				Compute{Duration: time.Second},
				Allocate{Bytes: 1024},
				Free{Bytes: 512},
				Throw{Exception: "IOException", Message: `quoted "path" and spaces`, Scope: scope.ScopeRemoteResource},
				IOWrite{Path: "/tmp/out file", Offset: 9, Data: []byte("bytes with \n newline")},
				Exit{Code: -1},
			},
		},
	}
	for i, p := range progs {
		enc := EncodeProgram(p)
		got, err := ParseProgram(enc)
		if err != nil {
			t.Fatalf("prog %d: parse %q: %v", i, enc, err)
		}
		if !reflect.DeepEqual(got, p) {
			t.Fatalf("prog %d: round trip changed program:\n got %#v\nwant %#v", i, got, p)
		}
		// Determinism: encoding is byte-stable.
		if enc2 := EncodeProgram(got); enc2 != enc {
			t.Fatalf("prog %d: unstable encoding:\n%q\n%q", i, enc, enc2)
		}
	}
}

func TestProgramCodecRejectsMalformed(t *testing.T) {
	bad := []string{
		"not a program",
		"program class=Main corrupt=maybe\n",
		"program class=Main corrupt=false\nwarp factor=9\n",
		"program class=Main corrupt=false\ncompute dur=abc\n",
		"program class=Main corrupt=false\nthrow exception=\"E\" message=\"m\" scope=nope\n",
		"program class=\"Main corrupt=false\n", // unterminated quote
	}
	for _, src := range bad {
		if p, err := ParseProgram(src); err == nil {
			t.Fatalf("parse %q succeeded: %#v", src, p)
		}
	}
}

// diffProgram is the differential check: on any input the codec and the
// parent's (codec_ref_test.go) must agree on accept/reject and on the
// decoded program, and an accepted program must survive an
// encode/parse round trip, encoded to the same bytes by both.
func diffProgram(t *testing.T, src string) {
	t.Helper()
	p, err := ParseProgram(src)
	want, rerr := refParseProgram(src)
	if err == nil && rerr != nil && spacingHole(src, rerr) {
		return
	}
	if (err == nil) != (rerr == nil) {
		t.Fatalf("ParseProgram(%q): codec says %v, parent says %v", src, err, rerr)
	}
	if err != nil {
		return
	}
	if !reflect.DeepEqual(p, want) {
		t.Fatalf("ParseProgram(%q): codec %#v, parent %#v", src, p, want)
	}
	enc := EncodeProgram(p)
	if ref := refEncodeProgram(want); enc != ref {
		t.Fatalf("program from %q encodes as %q, parent %q", src, enc, ref)
	}
	if back, err := ParseProgram(enc); err != nil || !reflect.DeepEqual(back, p) {
		t.Fatalf("round trip of %q: %#v, %v", enc, back, err)
	}
}

// spacingHole names the one deliberate difference.  The parent's
// splitter took exactly one space before each field and refused what
// EncodeProgram never writes — a run of spaces, a trailing space, an
// empty key ("=x") — as a malformed field or a missing one (" dur" is
// not "dur").  The codec reads with the journal's cursor, which skips
// spaces and ignores keys nobody asks for, so it accepts those lines;
// what they decode to is still checked by the round trip whenever the
// parent does accept a line.
func spacingHole(src string, rerr error) bool {
	msg := rerr.Error()
	return (strings.Contains(msg, "malformed field") || strings.Contains(msg, "missing field")) &&
		spacing.MatchString(src)
}

var spacing = regexp.MustCompile(`(?m)(  | $|(^program| |")=)`)

// programSeeds are every program text the sweep cells run (written by
// internal/experiments' TestFuzzCorporaHoldTheSweep), then the
// spellings a fuzzer needs luck for.
func programSeeds(t testing.TB) []string {
	data, err := os.ReadFile("testdata/sweep-programs.txt")
	if err != nil {
		t.Fatal(err)
	}
	var seeds []string
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		s, err := strconv.Unquote(line)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, s)
	}
	const head = "program class=\"Main\" corrupt=false\n"
	return append(seeds,
		EncodeProgram(NullPointer()), EncodeProgram(ExitWith(3, time.Second)), EncodeProgram(ReadsInput("/in put", 9)),
		"\n", "program", "program\n", "programclass=\"M\" corrupt=true", "program corrupt=true class=\"M\"",
		"program class=M corrupt=true", "program class=\"M\" corrupt=1", "program class=\"M\" class=\"N\" corrupt=F",
		head+"compute dur=5 dur=6", head+"compute dur=+5", head+"compute", head+"compute dur=", head+"\ncompute dur=1",
		head+"throw exception=\"E\" message=\"m\"", head+"throw exception=\"E\" message=\"m\" scope=none",
		head+"throw exception=\"E\" message=\"m\" scope=\"none\"", head+"throw exception=\"E\" message=\"m\\u00e9\" scope=process",
		head+"iowrite path=\"p\" offset=0 data=\"\"", head+"iowrite path=\"p\" offset=0 data=\"a\\x00b\"",
		head+"ioread path=\"p\"offset=1 length=2", head+"ioread path=\"a\\\"b\" offset=1 length=2", head+"exit code=9223372036854775807",
		head+"compute dur=1 junk=\"unterminated", head+"compute dur=1 a b=2", head+"compute x dur=1",
		// the spacing hole
		"program  class=\"M\" corrupt=true", "program class=\"M\" corrupt=true ", "program=x class=\"M\" corrupt=true",
		head+"compute  dur=1", head+"compute dur=1 ", head+"compute =x dur=1", "program class=\"M\"=x corrupt=true",
	)
}

// FuzzParseProgram is the program codec's differential proof.
//
//	go test ./internal/jvm -run xxx -fuzz '^FuzzParseProgram$' -fuzztime 30s
func FuzzParseProgram(f *testing.F) {
	for _, s := range programSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(diffProgram)
}

// TestProgramMatchesParent runs the seeds through both codecs.
func TestProgramMatchesParent(t *testing.T) {
	for _, s := range programSeeds(t) {
		diffProgram(t, s)
	}
}
