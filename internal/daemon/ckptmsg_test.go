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

// FuzzParseCheckpoint is the codec's canonicality guarantee: arbitrary
// input must never panic, and anything the parser accepts must
// re-encode to the exact input bytes — the same contract the flock
// codec pins.
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
	f.Fuzz(func(t *testing.T, s string) {
		job, cpu, err := ParseCheckpoint(s)
		if err != nil {
			return
		}
		if job < 0 || cpu < 0 {
			t.Fatalf("accepted negative values from %q: (%d, %v)", s, job, cpu)
		}
		enc := EncodeCheckpoint(job, cpu)
		if enc != s {
			t.Fatalf("accepted %q but re-encodes as %q: parser admits a non-canonical form", s, enc)
		}
		job2, cpu2, err := ParseCheckpoint(enc)
		if err != nil {
			t.Fatalf("re-parse of %q failed: %v", enc, err)
		}
		if job2 != job || cpu2 != cpu {
			t.Fatalf("round trip changed the record: (%d, %v) vs (%d, %v)", job2, cpu2, job, cpu)
		}
	})
}
