package daemon

import (
	"strings"
	"testing"
)

func TestFlockMsgEncodeForm(t *testing.T) {
	cases := []struct {
		m    FlockMsg
		want string
	}{
		{FlockMsg{Op: FlockGrant, Job: 7, Level: 2, Negotiator: "mm-p2"},
			`flock grant job=7 level=2 negotiator="mm-p2"`},
		{FlockMsg{Op: FlockDeny, Job: 41, Reason: "no live peer pool"},
			`flock deny job=41 reason="no live peer pool"`},
		{FlockMsg{Op: FlockDeny, Job: 0, Reason: ""},
			`flock deny job=0 reason=""`},
		{FlockMsg{Op: FlockGrant, Job: 3, Level: 1, Negotiator: `mm "quoted"`},
			`flock grant job=3 level=1 negotiator="mm \"quoted\""`},
	}
	for _, c := range cases {
		if got := EncodeFlockMsg(c.m); got != c.want {
			t.Errorf("EncodeFlockMsg(%+v) = %q, want %q", c.m, got, c.want)
		}
		back, err := ParseFlockMsg(c.want)
		if err != nil {
			t.Errorf("ParseFlockMsg(%q): %v", c.want, err)
		} else if back != c.m {
			t.Errorf("round trip of %q = %+v, want %+v", c.want, back, c.m)
		}
	}
}

func TestParseFlockMsgRejects(t *testing.T) {
	bad := []string{
		"",
		"flock",
		"flock ",
		"flock borrow job=1",
		"flock grant",
		"flock grant job=x level=1 negotiator=\"mm\"",
		"flock grant job=+1 level=1 negotiator=\"mm\"", // non-canonical int
		"flock grant job=007 level=1 negotiator=\"mm\"",
		"flock grant job=-1 level=1 negotiator=\"mm\"",
		"flock grant job=1 level=0 negotiator=\"mm\"", // level below 1
		"flock grant job=1 level=1 negotiator=\"\"",   // empty negotiator
		"flock grant job=1 level=1 negotiator=`mm`",   // non-canonical quoting
		"flock grant job=1 level=1 negotiator=\"mm\" extra",
		"flock deny job=1",
		"flock deny job=1 reason=\"x\" y",
		"flock deny reason=\"x\" job=1", // wrong field order
	}
	for _, s := range bad {
		if m, err := ParseFlockMsg(s); err == nil {
			t.Errorf("ParseFlockMsg(%q) accepted as %+v, want error", s, m)
		}
	}
}

// TestParseFlockMsgTruncation is the wire contract the
// flock-reply-truncate fault class leans on: no strict prefix of a
// canonical line parses — a grant cut anywhere in transit is an
// error, never a different grant.
func TestParseFlockMsgTruncation(t *testing.T) {
	for _, full := range []string{
		`flock grant job=12 level=2 negotiator="mm-p2"`,
		`flock deny job=7 reason="no live peer pool"`,
	} {
		for i := 0; i < len(full); i++ {
			if m, err := ParseFlockMsg(full[:i]); err == nil {
				t.Errorf("prefix %q parsed as %+v, want error", full[:i], m)
			}
		}
	}
}

func TestTruncateFlockReply(t *testing.T) {
	in := flockReplyMsg{Job: 5, Payload: "flock grant job=5 level=1 negotiator=\"mm-p2\""}
	got, ok := TruncateFlockReply(in, 12).(flockReplyMsg)
	if !ok || got.Payload != "flock grant " || got.Job != 5 {
		t.Errorf("TruncateFlockReply = %+v", got)
	}
	if got := TruncateFlockReply(in, 1000).(flockReplyMsg); got.Payload != in.Payload {
		t.Errorf("over-long cut changed the payload: %q", got.Payload)
	}
	if got := TruncateFlockReply(in, -3).(flockReplyMsg); got.Payload != "" {
		t.Errorf("negative cut kept %q", got.Payload)
	}
	if got := TruncateFlockReply("other", 1); got != "other" {
		t.Errorf("non-flock body mutated: %v", got)
	}
}

// FuzzParseFlockMsg is the codec's canonicality guarantee: arbitrary
// input must never panic, and anything the parser accepts must
// re-encode to the exact input bytes and survive a second round trip
// unchanged — the same contract the journal and scenario codecs pin.
func FuzzParseFlockMsg(f *testing.F) {
	grant := EncodeFlockMsg(FlockMsg{Op: FlockGrant, Job: 7, Level: 2, Negotiator: "mm-p2"})
	deny := EncodeFlockMsg(FlockMsg{Op: FlockDeny, Job: 7, Reason: "no live peer pool"})
	f.Add(grant)
	f.Add(deny)
	f.Add(grant[:12])         // cut mid-line, the injector's default
	f.Add(deny[:len(deny)-1]) // torn closing quote
	f.Add("flock grant job=1 level=1 negotiator=\"m\\\"m\"")
	f.Add("flock deny job=0 reason=\"\"")
	f.Add("garbage")
	f.Add(strings.Repeat("flock ", 8))
	f.Fuzz(func(t *testing.T, s string) {
		m, err := ParseFlockMsg(s)
		if err != nil {
			return
		}
		enc := EncodeFlockMsg(m)
		if enc != s {
			t.Fatalf("accepted %q but re-encodes as %q: parser admits a non-canonical form", s, enc)
		}
		m2, err := ParseFlockMsg(enc)
		if err != nil {
			t.Fatalf("re-parse of %q failed: %v", enc, err)
		}
		if m2 != m {
			t.Fatalf("round trip changed the message: %+v vs %+v", m2, m)
		}
	})
}
