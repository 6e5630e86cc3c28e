package monitor

import (
	"strings"
	"testing"

	"github.com/errscope/grid/internal/obs"
)

var sampleEvents = []obs.Event{
	{},
	{T: 1, Comp: "schedd", Kind: "state", Job: 4, Code: "running"},
	{T: -5, Comp: "m \"q\"", Kind: "error", Job: -1, Code: "Evicted",
		Scope: "remote-resource", EKind: "explicit",
		Detail: "owner reclaimed \"big\"\nline two", Value: 1 << 40},
	{T: 9223372036854775807, Comp: strings.Repeat("x", 100), Kind: "msg-lost"},
}

func TestEventRoundTrip(t *testing.T) {
	for _, ev := range sampleEvents {
		line := EncodeEvent(ev)
		got, err := ParseEvent(line)
		if err != nil {
			t.Fatalf("ParseEvent(%q): %v", line, err)
		}
		if got != ev {
			t.Fatalf("round trip changed the event: %+v != %+v", got, ev)
		}
		if re := EncodeEvent(got); re != line {
			t.Fatalf("re-encode differs:\n%q\n%q", line, re)
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	snap := Snapshot{T: 360000, Jobs: 16, Completed: 12, Held: 1, Unfinished: 3,
		Attempts: 40, Evictions: 9, Preemptions: 2, Requeues: 11, Recoveries: 1,
		GoodputNS: 1 << 50, BadputNS: -1, Sent: 99999, Lost: 3}
	line := EncodeSnapshot(snap)
	got, err := ParseSnapshot(line)
	if err != nil {
		t.Fatalf("ParseSnapshot(%q): %v", line, err)
	}
	if got != snap {
		t.Fatalf("round trip changed the snapshot: %+v != %+v", got, snap)
	}
	if re := EncodeSnapshot(got); re != line {
		t.Fatalf("re-encode differs:\n%q\n%q", line, re)
	}
}

func TestSubAndAdminRoundTrip(t *testing.T) {
	line := EncodeSub(42)
	from, err := ParseSub(line)
	if err != nil || from != 42 {
		t.Fatalf("ParseSub(%q) = %d, %v", line, from, err)
	}
	if _, err := ParseSub(EncodeSub(-1)); err == nil {
		t.Fatal("negative subscribe index should not parse")
	}

	line = EncodeAdmin("drain", "machine with spaces \"q\"")
	verb, target, err := ParseAdmin(line)
	if err != nil || verb != "drain" || target != "machine with spaces \"q\"" {
		t.Fatalf("ParseAdmin(%q) = %q, %q, %v", line, verb, target, err)
	}

	line = EncodeAdminOK("compact", "schedd", "journal folded")
	v, tg, detail, err := ParseAdminOK(line)
	if err != nil || v != "compact" || tg != "schedd" || detail != "journal folded" {
		t.Fatalf("ParseAdminOK(%q) = %q, %q, %q, %v", line, v, tg, detail, err)
	}
}

// TestParseRejects pins the strictness of the codec: damaged CRC,
// reordered fields, non-canonical spellings, and trailing bytes are
// all errors, never guesses.
func TestParseRejects(t *testing.T) {
	good := EncodeEvent(sampleEvents[1])
	bad := []string{
		"",
		"mev",
		"bogus " + good,
		good + " extra=1",
		strings.Replace(good, " crc=", " crc=0", 1),
		strings.Replace(good, "t=1", "t=01", 1),
		strings.Replace(good, "t=1", "t=+1", 1),
		strings.Replace(good, "job=4", "value=4", 1),
		good[:len(good)-1] + "X",
		strings.ToUpper(good[:len(good)-8]) + good[len(good)-8:],
	}
	for _, s := range bad {
		if _, err := ParseEvent(s); err == nil {
			t.Errorf("ParseEvent accepted %q", s)
		}
	}
	// Flipping any single payload byte must break the CRC (or the
	// strict grammar) — the checkpoint codec's property, held here.
	for i := range good[:len(good)-9] {
		mut := []byte(good)
		mut[i] ^= 0x20
		if got, err := ParseEvent(string(mut)); err == nil && got == sampleEvents[1] {
			t.Errorf("byte flip at %d went unnoticed: %q", i, mut)
		}
	}
	if _, err := ParseSnapshot("mmet t=0 crc=00000000"); err == nil {
		t.Error("truncated snapshot should not parse")
	}
	if _, _, err := ParseAdmin(`madm verb='drain' target="m" crc=00000000`); err == nil {
		t.Error("non-Go quoting should not parse")
	}
}

// The differential checks: on any input the lean codec and the
// reference (codec_ref_test.go) must agree on accept/reject, on the
// decoded value, and on the bytes either encodes it back to — and an
// accepted line must be the canonical encoding, byte for byte.
//
// One divergence is deliberate.  The reference lets a single space
// stand between the last field and the trailer ("msub from=0  crc=…"
// with a checksum that covers the extra space): its field cutters eat
// one optional space after every field, the last included.  Such a
// line re-encodes differently, which the codec's contract forbids, and
// the differential fuzz found it in seconds; the lean codec refuses
// it.  referenceHole recognises exactly that case.
func referenceHole(s string) bool {
	return len(s) > len(" crc=00000000") && s[len(s)-len("  crc=00000000")] == ' '
}

func diffEvent(t *testing.T, s string) {
	t.Helper()
	got, err := ParseEvent(s)
	want, rerr := refParseEvent(s)
	if rerr == nil && err != nil && referenceHole(s) {
		return
	}
	if (err == nil) != (rerr == nil) {
		t.Fatalf("ParseEvent(%q): lean says %v, reference says %v", s, err, rerr)
	}
	if err != nil {
		return
	}
	if got != want {
		t.Fatalf("ParseEvent(%q): lean %+v, reference %+v", s, got, want)
	}
	if re, ref := EncodeEvent(got), refEncodeEvent(want); re != ref || re != s {
		t.Fatalf("accepted line does not re-encode to itself:\n%q\n%q (lean)\n%q (reference)", s, re, ref)
	}
}

func diffSnapshot(t *testing.T, s string) {
	t.Helper()
	got, err := ParseSnapshot(s)
	want, rerr := refParseSnapshot(s)
	if rerr == nil && err != nil && referenceHole(s) {
		return
	}
	if (err == nil) != (rerr == nil) {
		t.Fatalf("ParseSnapshot(%q): lean says %v, reference says %v", s, err, rerr)
	}
	if err != nil {
		return
	}
	if got != want {
		t.Fatalf("ParseSnapshot(%q): lean %+v, reference %+v", s, got, want)
	}
	if re, ref := EncodeSnapshot(got), refEncodeSnapshot(want); re != ref || re != s {
		t.Fatalf("accepted line does not re-encode to itself:\n%q\n%q (lean)\n%q (reference)", s, re, ref)
	}
}

// diffControl covers the three control records: msub, madm, mok.
func diffControl(t *testing.T, s string) {
	t.Helper()
	hole := referenceHole(s)

	from, err := ParseSub(s)
	rfrom, rerr := refParseSub(s)
	if (err == nil) != (rerr == nil) && !(hole && rerr == nil) {
		t.Fatalf("ParseSub(%q): lean says %v, reference says %v", s, err, rerr)
	}
	if err == nil {
		if re, ref := EncodeSub(from), refEncodeSub(rfrom); from != rfrom || re != ref || re != s {
			t.Fatalf("sub line %q: lean %d %q, reference %d %q", s, from, re, rfrom, ref)
		}
	}

	verb, target, err := ParseAdmin(s)
	rverb, rtarget, rerr := refParseAdmin(s)
	if (err == nil) != (rerr == nil) && !(hole && rerr == nil) {
		t.Fatalf("ParseAdmin(%q): lean says %v, reference says %v", s, err, rerr)
	}
	if err == nil {
		re, ref := EncodeAdmin(verb, target), refEncodeAdmin(rverb, rtarget)
		if verb != rverb || target != rtarget || re != ref || re != s {
			t.Fatalf("admin line %q: lean %q %q %q, reference %q %q %q", s, verb, target, re, rverb, rtarget, ref)
		}
	}

	verb, target, detail, err := ParseAdminOK(s)
	rverb, rtarget, rdetail, rerr := refParseAdminOK(s)
	if (err == nil) != (rerr == nil) && !(hole && rerr == nil) {
		t.Fatalf("ParseAdminOK(%q): lean says %v, reference says %v", s, err, rerr)
	}
	if err == nil {
		re, ref := EncodeAdminOK(verb, target, detail), refEncodeAdminOK(rverb, rtarget, rdetail)
		if verb != rverb || target != rtarget || detail != rdetail || re != ref || re != s {
			t.Fatalf("ack line %q: lean %q %q %q %q, reference %q %q %q %q",
				s, verb, target, detail, re, rverb, rtarget, rdetail, ref)
		}
	}
}

// awkward are the payloads (trailer added by reseal) the lean codec's
// shortcuts could get wrong: each is canonical sampleEvents[1] with one
// field respelled.  The reference decides which of them are records.
func awkward() []string {
	good := EncodeEvent(sampleEvents[1])
	good = good[:strings.LastIndex(good, " crc=")]
	respell := func(old, new string) string {
		if !strings.Contains(good, old) {
			panic("no " + old + " in " + good)
		}
		return strings.Replace(good, old, new, 1)
	}
	return []string{
		good,
		respell(`comp="schedd"`, `comp="sch\"edd"`),     // escaped quote
		respell(`comp="schedd"`, `comp="sch\\edd"`),     // escaped backslash
		respell(`comp="schedd"`, `comp="sch\edd"`),      // unknown escape
		respell(`comp="schedd"`, `comp="sch\x7fedd"`),   // DEL, escaped: canonical
		respell(`comp="schedd"`, "comp=\"sch\x7fedd\""), // DEL, raw: not
		respell(`comp="schedd"`, `comp="sch\xffedd"`),   // invalid UTF-8, escaped
		respell(`comp="schedd"`, "comp=\"sch\xffedd\""), // invalid UTF-8, raw
		respell(`comp="schedd"`, `comp="schédd"`),       // printable non-ASCII, raw: canonical
		respell(`comp="schedd"`, `comp="sch\u00e9dd"`),  // the same, escaped: not
		respell(`comp="schedd"`, `comp="sch\tedd"`),     // tab, escaped
		respell(`comp="schedd"`, "comp=\"sch\tedd\""),   // tab, raw
		respell(`comp="schedd"`, "comp=`schedd`"),       // raw string literal
		respell(`comp="schedd"`, `comp='s'`),            // rune literal
		respell(`comp="schedd"`, `comp="schedd`),        // unterminated
		respell(`comp="schedd"`, `comp=schedd`),         // unquoted
		respell(`comp="schedd"`, `comp="schedd"x`),      // no space after
		respell(`comp="schedd"`, `comp="sch crc=edd"`),  // a trailer look-alike inside a value
		respell(`detail=""`, `detail="" `),              // space before the next field
		respell(`t=1`, `t=-0`),
		respell(`t=1`, `t=+2`),
		respell(`t=1`, `t=007`),
		respell(`t=1`, `t=`),
		respell(`t=1`, `t=-`),
		respell(`t=1`, `t=1_0`),
		respell(`t=1`, `t=0x1`),
		respell(`t=1`, `t=9223372036854775807`),
		respell(`t=1`, `t=9223372036854775808`),
		respell(`t=1`, `t=-9223372036854775808`),
		respell(`t=1`, `t=-9223372036854775809`),
		respell(`job=4`, `jo=4`),   // a strict prefix of the expected key
		respell(`job=4`, `jobs=4`), // the expected key is a strict prefix of it
		respell(`job=4`, `job4`),
		respell(`value=0`, `value=0 `), // the reference's hole
		respell(`value=0`, `value=0 x`),
		good + " ",
	}
}

// TestCodecMatchesReference runs the differential check over the
// awkward spellings, sealed with a valid trailer so the field grammar
// decides, and over trailers that are themselves damaged.
func TestCodecMatchesReference(t *testing.T) {
	accepted := 0
	for _, payload := range awkward() {
		line := reseal(t, payload)
		diffEvent(t, line)
		if _, err := ParseEvent(line); err == nil {
			accepted++
		}
	}
	// The canonical line, its six canonical respellings (escaped
	// quote, backslash, DEL, invalid UTF-8 and tab; raw é) and the two
	// int64 bounds parse; everything else must not.
	if accepted != 9 {
		t.Errorf("%d of the awkward spellings parsed, want 9", accepted)
	}
	if _, err := ParseEvent(reseal(t, awkward()[0]+" ")); err == nil {
		t.Error("a space between the last field and the trailer parsed: the line is not canonical")
	}

	good := EncodeEvent(sampleEvents[2])
	n := len(good)
	for _, line := range []string{
		good[:n-8] + strings.ToUpper(good[n-8:]), // uppercase hex
		good[:n-8] + "+" + good[n-7:],
		good[:n-8] + "0x" + good[n-6:],
		good[:n-8] + good[n-7:],       // seven digits
		good[:n-8] + "0" + good[n-8:], // nine
		good[:n-13],                   // no trailer
		good[:n-13] + good[n-13:] + good[n-13:],
	} {
		diffEvent(t, line)
		if _, err := ParseEvent(line); err == nil {
			t.Errorf("ParseEvent accepted %q", line)
		}
	}
}

// TestNoPrefixParses truncates one canonical record of every kind at
// every offset: no strict prefix of a record is a record, for either
// codec.
func TestNoPrefixParses(t *testing.T) {
	for _, line := range []string{
		EncodeEvent(sampleEvents[2]),
		EncodeSnapshot(Snapshot{T: 360000, Jobs: 16, GoodputNS: 1 << 50, Lost: -3}),
		EncodeSub(42),
		EncodeAdmin("drain", "machine \"q\""),
		EncodeAdminOK("drain", "big", "draining big"),
	} {
		diffEvent(t, line)
		diffSnapshot(t, line)
		diffControl(t, line)
		for cut := 0; cut < len(line); cut++ {
			prefix := line[:cut]
			diffEvent(t, prefix)
			diffSnapshot(t, prefix)
			diffControl(t, prefix)
			_, e1 := ParseEvent(prefix)
			_, e2 := ParseSnapshot(prefix)
			_, e3 := ParseSub(prefix)
			_, _, e4 := ParseAdmin(prefix)
			_, _, _, e5 := ParseAdminOK(prefix)
			if e1 == nil || e2 == nil || e3 == nil || e4 == nil || e5 == nil {
				t.Fatalf("the %d-byte prefix of %q parsed", cut, line)
			}
		}
	}
}

// TestEncodeMatchesReference pins the encoders byte for byte on values
// the parse-side checks cannot reach (nothing parses to a string with
// a raw control byte in it, but a daemon may emit one).
func TestEncodeMatchesReference(t *testing.T) {
	strs := []string{"", "plain", "two words", `q"uote`, `back\slash`, "tab\t", "nl\n", "\x00", "\x7f",
		"\xff\xfe", "é", "\u2028", "日本語", "a crc=00000000", strings.Repeat("long ", 100)}
	ints := []int64{0, 1, -1, 42, 1 << 40, -1 << 63, 1<<63 - 1}
	for i, a := range strs {
		b := strs[(i+1)%len(strs)]
		n := ints[i%len(ints)]
		ev := obs.Event{T: n, Comp: a, Kind: b, Job: -n, Code: a, Scope: b, EKind: a, Detail: b, Value: n}
		if got, want := EncodeEvent(ev), refEncodeEvent(ev); got != want {
			t.Errorf("EncodeEvent:\n%q\n%q", got, want)
		}
		diffEvent(t, EncodeEvent(ev))
		if got, want := EncodeAdmin(a, b), refEncodeAdmin(a, b); got != want {
			t.Errorf("EncodeAdmin:\n%q\n%q", got, want)
		}
		if got, want := EncodeAdminOK(a, b, a), refEncodeAdminOK(a, b, a); got != want {
			t.Errorf("EncodeAdminOK:\n%q\n%q", got, want)
		}
		diffControl(t, EncodeAdmin(a, b))
		diffControl(t, EncodeAdminOK(a, b, a))
		if got, want := EncodeSub(n), refEncodeSub(n); got != want {
			t.Errorf("EncodeSub: %q %q", got, want)
		}
		snap := Snapshot{T: n, Jobs: -n, Held: int64(i), BadputNS: n, Lost: n}
		if got, want := EncodeSnapshot(snap), refEncodeSnapshot(snap); got != want {
			t.Errorf("EncodeSnapshot:\n%q\n%q", got, want)
		}
		diffSnapshot(t, EncodeSnapshot(snap))
	}
}

// The fuzz targets are differential.  A mutated line almost never
// keeps a valid checksum, so each input is also tried with its trailer
// recomputed: that is what lets the fuzzer reach the field grammar.

func FuzzParseEvent(f *testing.F) {
	for _, ev := range sampleEvents {
		f.Add(EncodeEvent(ev))
	}
	f.Add("mev t=0")
	for _, payload := range awkward() {
		f.Add(payload)
	}
	f.Fuzz(func(t *testing.T, s string) {
		diffEvent(t, s)
		diffEvent(t, reseal(t, s))
	})
}

func FuzzParseSnapshot(f *testing.F) {
	f.Add(EncodeSnapshot(Snapshot{}))
	f.Add(EncodeSnapshot(Snapshot{T: 1, Jobs: 2, Lost: -3}))
	f.Add(strings.Replace(EncodeSnapshot(Snapshot{}), "jobs=0", "jobs=-0", 1))
	f.Add(strings.Replace(EncodeSnapshot(Snapshot{}), "held=0", "hel=0", 1))
	f.Fuzz(func(t *testing.T, s string) {
		diffSnapshot(t, s)
		diffSnapshot(t, reseal(t, s))
	})
}

func FuzzParseAdmin(f *testing.F) {
	f.Add(EncodeAdmin("drain", "big"))
	f.Add(EncodeAdminOK("drain", "big", "ok"))
	f.Add(EncodeAdmin("dr\"ain", "b\\ig\x7f"))
	f.Add(EncodeAdminOK("drain", "é", "\xff"))
	f.Add(EncodeSub(7))
	f.Add("msub from=+7")
	f.Fuzz(func(t *testing.T, s string) {
		diffControl(t, s)
		diffControl(t, reseal(t, s))
	})
}
