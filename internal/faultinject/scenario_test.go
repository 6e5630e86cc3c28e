package faultinject

import (
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestScenarioRoundTrip: Parse(Encode(s)) reproduces s exactly, and
// Encode is a canonical form (re-encoding is byte-identical) — the
// property that makes scenario files diffable regression artifacts.
func TestScenarioRoundTrip(t *testing.T) {
	s := Scenario{
		Seed: 42,
		Faults: []Fault{
			{Class: ClassCrash, Site: "machine:c001", At: 5 * time.Minute, For: 2 * time.Hour},
			{Class: ClassCrash, Site: "actor:matchmaker", At: time.Minute, For: 10 * time.Minute},
			{Class: ClassMsgDrop, Site: "kind:claim-reply", Count: 3},
			{Class: ClassMsgDelay, Site: "actor:shadow:", At: time.Second, Param: 2500},
			{Class: ClassMsgDup, Site: "kind:job-result", Param: 2},
			{Class: ClassFSOffline, Site: "submit", At: time.Minute, For: 4 * time.Hour},
			{Class: ClassDiskFull, Site: "submit", Param: 4096},
			{Class: ClassPermission, Site: "submit", Path: "/home/user/my results/out"},
			{Class: ClassCorruptData, Site: "submit", Path: "/home/user/job0.class", Count: 2},
			{Class: ClassHeapExhaustion, Site: "machine:big", Param: 1 << 20},
			{Class: ClassMissingInstall, Site: "machine:big", At: time.Hour},
			{Class: ClassBadLibraryPath, Site: "machine:big"},
			{Class: ClassConnReset, Site: "chirp", Param: 64},
			{Class: ClassConnTruncate, Site: "remoteio", Param: 10},
			{Class: ClassFrameCorrupt, Site: "chirp", Param: 3},
			{Class: ClassMACFailure, Site: "remoteio", Param: 4},
			{Class: ClassFrameReplay, Site: "chirp", Param: 4},
			{Class: ClassKeyExpiry, Site: "remoteio", Param: 3},
		},
	}
	enc := s.Encode()
	got, err := Parse(enc)
	if err != nil {
		t.Fatalf("Parse(Encode): %v\n%s", err, enc)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, s)
	}
	if re := got.Encode(); re != enc {
		t.Fatalf("Encode is not canonical:\n first %q\nsecond %q", enc, re)
	}
}

// TestScenarioParseTolerance: comments, blank lines, and surrounding
// whitespace are ignored.
func TestScenarioParseTolerance(t *testing.T) {
	text := `
# a hand-written scenario
seed = 7

  fault class=msg-drop site=kind:advertise count=1
# trailing comment
`
	s, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if s.Seed != 7 || len(s.Faults) != 1 || s.Faults[0].Class != ClassMsgDrop {
		t.Fatalf("parsed %+v", s)
	}
}

// TestScenarioParseErrors: every malformed input is rejected with a
// diagnostic naming the problem, never silently skipped.
func TestScenarioParseErrors(t *testing.T) {
	cases := []struct {
		name, text, want string
	}{
		{"no seed", "fault class=crash site=machine:a\n", "no \"seed = N\""},
		{"bad seed", "seed = many\n", "bad seed"},
		{"garbage line", "seed = 1\nhello world\n", "expected"},
		{"unknown class", "seed = 1\nfault class=gremlin site=submit\n", "unknown fault class"},
		{"missing site", "seed = 1\nfault class=crash\n", "no site"},
		{"unknown field", "seed = 1\nfault class=crash site=machine:a whom=me\n", "unknown field"},
		{"bad duration", "seed = 1\nfault class=crash site=machine:a at=soon\n", "bad at"},
		{"negative count", "seed = 1\nfault class=msg-drop site=kind:x count=-2\n", "negative"},
		{"bare field", "seed = 1\nfault class=crash site=machine:a whee\n", "not key=value"},
		{"unterminated quote", "seed = 1\nfault class=permission site=submit path=\"/oops\n", "unterminated quote"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.text)
			if err == nil {
				t.Fatalf("Parse accepted %q", c.text)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// TestScenarioEncodeQuotesAwkwardSites: a site that is not a bare token
// — a space, a quote, a control byte — used to be written bare, so the
// text Encode wrote did not parse back ("site=a b" is a site "a" and a
// field "b").  Such a site is quoted now; a bare one is written as it
// always was.
func TestScenarioEncodeQuotesAwkwardSites(t *testing.T) {
	for _, site := range []string{"a b", `q"uote`, "tab\there", "é", "machine:c001", "actor:shadow:", `back\slash`} {
		s := Scenario{Seed: 1, Faults: []Fault{{Class: ClassCrash, Site: site, At: time.Minute}}}
		enc := s.Encode()
		got, err := Parse(enc)
		if err != nil || !reflect.DeepEqual(got, s) {
			t.Errorf("site %q: Parse(%q) = %+v, %v", site, enc, got, err)
		}
		if bare(site) != (enc == refEncode(s)) {
			t.Errorf("site %q: encoded %q, parent %q", site, enc, refEncode(s))
		}
	}
}

// diffScenario is the differential check: on any input the codec and
// the parent's (scenario_ref_test.go) agree on accept/reject and on the
// decoded scenario, Encode is canonical for what was accepted —
// Parse(Encode(s)) == s, and re-encoding is byte-identical — and for a
// scenario whose sites are all bare tokens Encode writes the parent's
// bytes.
func diffScenario(t *testing.T, text string) {
	t.Helper()
	s, err := Parse(text)
	want, rerr := refParse(text)
	if err != nil && rerr == nil && quoteHole(text, want) {
		return
	}
	if (err == nil) != (rerr == nil) {
		t.Fatalf("Parse(%q): codec says %v, parent says %v", text, err, rerr)
	}
	if err != nil {
		return
	}
	if !reflect.DeepEqual(s, want) {
		t.Fatalf("Parse(%q): codec %+v, parent %+v", text, s, want)
	}
	enc := s.Encode()
	back, err := Parse(enc)
	if err != nil || !reflect.DeepEqual(back, s) {
		t.Fatalf("Parse(Encode(%+v)) = %+v, %v\n%s", s, back, err, enc)
	}
	if re := back.Encode(); re != enc {
		t.Fatalf("Encode is not canonical:\n first %q\nsecond %q", enc, re)
	}
	allBare := true
	for _, f := range s.Faults {
		allBare = allBare && bare(f.Site)
	}
	if ref := refEncode(s); allBare && enc != ref {
		t.Fatalf("bare-site scenario encodes as %q, parent %q", enc, ref)
	}
}

// quoteHole names the one deliberate difference.  The parent's splitter
// treated a quote anywhere in a field as the start of a quoted part and
// spliced the unquoted part back in: `site=a"b c"` was the site "ab c",
// `"class=crash"` the class crash.  Encode never wrote such a line; the
// codec reads a value as bare or quoted as a whole, and refuses a quote
// anywhere else.  The parent's reading is still expressible: the
// scenario it decoded round-trips through Encode.
func quoteHole(text string, parent Scenario) bool {
	if !strings.Contains(text, `"`) {
		return false
	}
	back, err := Parse(parent.Encode())
	return err == nil && reflect.DeepEqual(back, parent)
}

// scenarioSeeds are every scenario text the sweep cells run (written by
// internal/experiments' TestFuzzCorporaHoldTheSweep), then the
// spellings a fuzzer needs luck for.
func scenarioSeeds(t testing.TB) []string {
	data, err := os.ReadFile("testdata/sweep-scenarios.txt")
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
	const head = "seed = 1\nfault class=permission site=submit"
	return append(seeds,
		head, head+` path="/a b"`, head+` path="/a\"b"`, head+` path=/plain`, head+` path="/unterminated`,
		head+` path="/a"site=x`, head+` path="/a"x`, head+` site=y site=z`, head+` count=+3 param=-4 at=1h for=-0s`,
		head+` count=x`, head+` at=soon`, head+` =x`, head+` a b=1`, head+` "path=/x"`, head+` site=a"b c"`,
		head+` site=a"b`, head+` site="a b"`, head+` site=a="b"`, head+` pa"th="/x"`, head+` class="crash"`,
		head+"\tcount=1", "seed = x", "fault class=crash site=m", "# c\nseed = 2\n\n  fault class=crash site=m  \n",
	)
}

// FuzzParseScenario is the scenario codec's differential proof; its
// round-trip property is what finds a non-canonical Encode.
//
//	go test ./internal/faultinject -run xxx -fuzz '^FuzzParseScenario$' -fuzztime 30s
func FuzzParseScenario(f *testing.F) {
	for _, s := range scenarioSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(diffScenario)
}

// TestScenarioMatchesParent runs the seeds through both codecs.
func TestScenarioMatchesParent(t *testing.T) {
	for _, s := range scenarioSeeds(t) {
		diffScenario(t, s)
	}
}
