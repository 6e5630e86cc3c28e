package daemon

import (
	"fmt"
	"hash/crc32"
	"strings"
	"testing"
	"time"
)

func TestCheckpointEncodeForm(t *testing.T) {
	prefixes := []struct {
		job    JobID
		cpu    time.Duration
		prefix string
	}{
		{7, 30 * time.Minute, "ckpt job=7 cpu=1800000000000"},
		{1, 0, "ckpt job=1 cpu=0"},
	}
	for _, c := range prefixes {
		want := fmt.Sprintf("%s crc=%08x", c.prefix, crc32.ChecksumIEEE([]byte(c.prefix)))
		got := EncodeCheckpoint(c.job, c.cpu)
		if got != want {
			t.Errorf("EncodeCheckpoint(%d, %v) = %q, want %q", c.job, c.cpu, got, want)
		}
		job, cpu, err := ParseCheckpoint(got)
		if err != nil {
			t.Errorf("ParseCheckpoint(%q): %v", got, err)
		} else if job != c.job || cpu != c.cpu {
			t.Errorf("round trip of %q = (%d, %v), want (%d, %v)", got, job, cpu, c.job, c.cpu)
		}
	}
}

func TestParseCheckpointRejects(t *testing.T) {
	good := EncodeCheckpoint(7, 30*time.Minute)
	bad := []string{
		"",
		"ckpt",
		"ckpt ",
		"checkpoint job=1 cpu=0 crc=00000000",
		"ckpt job=x cpu=0 crc=00000000",
		"ckpt job=+1 cpu=0 crc=00000000", // non-canonical int
		"ckpt job=007 cpu=0 crc=00000000",
		"ckpt job=-1 cpu=0 crc=00000000",
		"ckpt job=1 cpu=-5 crc=00000000",
		"ckpt cpu=0 job=1 crc=00000000", // wrong field order
		"ckpt job=1 cpu=0",              // no crc
		"ckpt job=1 cpu=0 crc=123",      // short crc
		"ckpt job=1 cpu=0 crc=0000000g", // non-hex crc
		good + " extra",                 // trailing garbage breaks the crc
		strings.ToUpper(good),           // case damage breaks the crc
	}
	// Uppercased CRC digits alone: canonical-hex rejection, distinct
	// from a checksum mismatch.
	if i := strings.IndexAny(good[len(good)-8:], "abcdef"); i >= 0 {
		up := good[:len(good)-8] + strings.ToUpper(good[len(good)-8:])
		bad = append(bad, up)
	}
	for _, s := range bad {
		if job, cpu, err := ParseCheckpoint(s); err == nil {
			t.Errorf("ParseCheckpoint(%q) accepted as (%d, %v), want error", s, job, cpu)
		}
	}
}

// TestParseCheckpointTruncation is the wire contract the
// corrupt-checkpoint fault class leans on: no strict prefix of a
// canonical record parses — a checkpoint cut anywhere in transit is an
// error, never a smaller checkpoint.
func TestParseCheckpointTruncation(t *testing.T) {
	full := EncodeCheckpoint(12, 95*time.Minute)
	for i := 0; i < len(full); i++ {
		if job, cpu, err := ParseCheckpoint(full[:i]); err == nil {
			t.Errorf("prefix %q parsed as (%d, %v), want error", full[:i], job, cpu)
		}
	}
}

// TestParseCheckpointBitDamage: flipping any single payload byte must
// fail the CRC (or the field syntax) — the shadow never commits a
// damaged record.
func TestParseCheckpointBitDamage(t *testing.T) {
	full := EncodeCheckpoint(3, 2*time.Hour)
	for i := 0; i < len(full); i++ {
		b := []byte(full)
		b[i] ^= 0x20
		if string(b) == full {
			continue
		}
		if job, cpu, err := ParseCheckpoint(string(b)); err == nil {
			t.Errorf("byte %d flipped: parsed as (%d, %v), want error", i, job, cpu)
		}
	}
}

func TestCorruptCheckpoint(t *testing.T) {
	in := checkpointMsg{Job: 5, Payload: EncodeCheckpoint(5, time.Hour)}
	got, ok := CorruptCheckpoint(in, 3).(checkpointMsg)
	if !ok || got.Payload == in.Payload || got.Job != 5 {
		t.Errorf("CorruptCheckpoint = %+v", got)
	}
	if _, _, err := ParseCheckpoint(got.Payload); err == nil {
		t.Errorf("corrupted payload %q still parses", got.Payload)
	}
	if got := CorruptCheckpoint(in, -3).(checkpointMsg); got.Payload == in.Payload {
		t.Errorf("negative index left the payload intact")
	}
	if got := CorruptCheckpoint(in, len(in.Payload)+3).(checkpointMsg); got.Payload == in.Payload {
		t.Errorf("out-of-range index left the payload intact")
	}
	if got := CorruptCheckpoint("other", 1); got != "other" {
		t.Errorf("non-checkpoint body mutated: %v", got)
	}
	empty := checkpointMsg{Job: 5}
	if got := CorruptCheckpoint(empty, 1).(checkpointMsg); got != empty {
		t.Errorf("empty payload mutated: %+v", got)
	}
}

// resealCkpt recomputes a record's CRC trailer (or adds one), so that
// what decides is the field grammar, not the checksum.
func resealCkpt(s string) string {
	if i := strings.LastIndex(s, " crc="); i >= 0 {
		s = s[:i]
	}
	return fmt.Sprintf("%s crc=%08x", s, crc32.ChecksumIEEE([]byte(s)))
}

// diffCkpt is the differential check: on any input the codec and the
// parent's (ckptmsg_ref_test.go) must agree on accept/reject and on
// the decoded values, and an accepted line must be the canonical
// encoding under both, byte for byte.  There is no deliberate
// difference in what is accepted; only some error texts moved (see
// CHANGES.md).
func diffCkpt(t *testing.T, s string) {
	t.Helper()
	job, cpu, err := ParseCheckpoint(s)
	rjob, rcpu, rerr := refParseCheckpoint(s)
	if (err == nil) != (rerr == nil) {
		t.Fatalf("ParseCheckpoint(%q): codec says %v, parent says %v", s, err, rerr)
	}
	if err != nil {
		return
	}
	if job != rjob || cpu != rcpu || job < 0 || cpu < 0 {
		t.Fatalf("ParseCheckpoint(%q): codec (%d, %v), parent (%d, %v)", s, job, cpu, rjob, rcpu)
	}
	if enc, ref := EncodeCheckpoint(job, cpu), refEncodeCheckpoint(rjob, rcpu); enc != s || ref != s {
		t.Fatalf("accepted %q but re-encodes as %q (parent %q)", s, enc, ref)
	}
}

// FuzzParseCheckpoint is the codec's canonicality guarantee and its
// differential proof: arbitrary input must never panic, the codec and
// its parent agree on every input, and anything accepted re-encodes to
// the exact input bytes.  A mutated line almost never keeps a valid
// checksum, so each input is also tried re-sealed: that is what lets
// the fuzzer reach the field grammar.
func FuzzParseCheckpoint(f *testing.F) {
	a := EncodeCheckpoint(7, 30*time.Minute)
	b := EncodeCheckpoint(1, 0)
	f.Add(a)
	f.Add(b)
	f.Add(a[:12])       // cut mid-line
	f.Add(a[:len(a)-1]) // torn crc
	f.Add("ckpt job=1 cpu=0 crc=00000000")
	f.Add("garbage")
	f.Add(strings.Repeat("ckpt ", 8))
	for _, s := range ckptAwkward {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		diffCkpt(t, s)
		diffCkpt(t, resealCkpt(s))
	})
}

// ckptAwkward are payloads (trailer added by resealCkpt) a fuzzer needs
// luck for: each is a canonical record with one thing respelled.
var ckptAwkward = []string{
	"ckpt job=7 cpu=5", "ckpt job=7 cpu=5 ", "ckpt job=7  cpu=5", "ckpt  job=7 cpu=5",
	"ckpt job=7 cpu=5 x", "ckpt job=7 cpu=5 crc=00000000", "ckpt job=7", "ckpt job=7 ",
	"ckpt job=+7 cpu=5", "ckpt job=07 cpu=5", "ckpt job=-0 cpu=5", "ckpt job=7 cpu=-5",
	"ckpt job=-7 cpu=5", "ckpt job=7\x00cpu=5", "ckpt job=\x11 cpu=5", "ckpt cpu=5 job=7",
	"ckpt job=9223372036854775807 cpu=9223372036854775807", "ckpt job=7 cpu=9223372036854775808",
}

// TestCheckpointMatchesParent runs the awkward spellings through both
// codecs, sealed and as they are, plus damaged trailers.
func TestCheckpointMatchesParent(t *testing.T) {
	for _, s := range ckptAwkward {
		diffCkpt(t, s)
		diffCkpt(t, resealCkpt(s))
	}
	good := EncodeCheckpoint(3, time.Hour)
	n := len(good)
	for _, s := range []string{
		good[:n-8] + strings.ToUpper(good[n-8:]), good[:n-8] + "+" + good[n-7:],
		good[:n-8] + good[n-7:], good[:n-8] + "0" + good[n-8:], good[:n-13],
		good + good[n-13:], good[:n-13] + " " + good[n-13:],
	} {
		diffCkpt(t, s)
	}
}
