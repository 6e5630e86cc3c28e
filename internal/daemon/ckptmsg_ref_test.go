package daemon

// The checkpoint codec as it stood before package record
// (EncodeCheckpoint, ParseCheckpoint and cutCkptInt from ckptmsg.go),
// kept verbatim as the oracle for FuzzParseCheckpoint and the table
// tests: only the names are prefixed "ref" so both codecs live in one
// package.  It defines which byte strings are checkpoint records; do
// not optimise or fix it.

import (
	"fmt"
	"hash/crc32"
	"strconv"
	"strings"
	"time"
)

// refEncodeCheckpoint renders the canonical one-line checkpoint record
// for a job's accumulated CPU progress.
func refEncodeCheckpoint(job JobID, cpu time.Duration) string {
	var sb strings.Builder
	sb.WriteString("ckpt job=")
	sb.WriteString(strconv.Itoa(int(job)))
	sb.WriteString(" cpu=")
	sb.WriteString(strconv.FormatInt(int64(cpu), 10))
	sum := crc32.ChecksumIEEE([]byte(sb.String()))
	sb.WriteString(" crc=")
	fmt.Fprintf(&sb, "%08x", sum)
	return sb.String()
}

// refParseCheckpoint decodes one checkpoint record, strictly: exact field
// order, single spaces, canonical integers, and a CRC that matches the
// bytes it covers.  Anything else — above all, a payload damaged in
// transit — is an error.
func refParseCheckpoint(s string) (JobID, time.Duration, error) {
	rest, ok := strings.CutPrefix(s, "ckpt ")
	if !ok {
		return 0, 0, fmt.Errorf("ckpt: not a checkpoint record: %q", s)
	}
	job, err := refCutCkptInt(&rest, "job", true)
	if err != nil {
		return 0, 0, err
	}
	if job < 0 {
		return 0, 0, fmt.Errorf("ckpt: negative job %d", job)
	}
	cpu, err := refCutCkptInt(&rest, "cpu", true)
	if err != nil {
		return 0, 0, err
	}
	if cpu < 0 {
		return 0, 0, fmt.Errorf("ckpt: negative cpu %d", cpu)
	}
	raw, ok := strings.CutPrefix(rest, "crc=")
	if !ok {
		return 0, 0, fmt.Errorf("ckpt: expected crc= at %q", rest)
	}
	if len(raw) != 8 {
		return 0, 0, fmt.Errorf("ckpt: crc %q is not 8 hex digits", raw)
	}
	sum, err := strconv.ParseUint(raw, 16, 32)
	if err != nil {
		return 0, 0, fmt.Errorf("ckpt: field crc: %w", err)
	}
	// Canonical hex only: ParseUint accepts uppercase, which would
	// re-encode differently and break the round trip.
	if raw != fmt.Sprintf("%08x", uint32(sum)) {
		return 0, 0, fmt.Errorf("ckpt: non-canonical crc=%q", raw)
	}
	covered := s[:len(s)-len(" crc=")-8]
	if got := crc32.ChecksumIEEE([]byte(covered)); got != uint32(sum) {
		return 0, 0, fmt.Errorf("ckpt: crc mismatch: record says %08x, bytes say %08x",
			uint32(sum), got)
	}
	return JobID(job), time.Duration(cpu), nil
}

// refCutCkptInt consumes "key=<int64>" (and, when more fields follow, the
// single space after it) from the front of *rest.
func refCutCkptInt(rest *string, key string, more bool) (int64, error) {
	r, ok := strings.CutPrefix(*rest, key+"=")
	if !ok {
		return 0, fmt.Errorf("ckpt: expected %s= at %q", key, *rest)
	}
	var raw string
	if more {
		raw, r, ok = strings.Cut(r, " ")
		if !ok {
			return 0, fmt.Errorf("ckpt: truncated after %s", key)
		}
	} else {
		raw, r = r, ""
	}
	v, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("ckpt: field %s: %w", key, err)
	}
	// Reject non-canonical spellings ("+2", "007") that ParseInt
	// accepts: they would re-encode differently.
	if raw != strconv.FormatInt(v, 10) {
		return 0, fmt.Errorf("ckpt: non-canonical %s=%q", key, raw)
	}
	*rest = r
	return v, nil
}
