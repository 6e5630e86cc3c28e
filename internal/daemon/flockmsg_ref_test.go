package daemon

// The flock codec as it stood before package record (EncodeFlockMsg,
// ParseFlockMsg and their field cutters from flockmsg.go), kept
// verbatim as the oracle for FuzzParseFlockMsg and the table tests:
// only the names are prefixed "ref" so both codecs live in one
// package.  It defines which byte strings are flock records; do not
// optimise or fix it.

import (
	"fmt"
	"strconv"
	"strings"
)

// refEncodeFlockMsg renders the canonical one-line encoding.
func refEncodeFlockMsg(m FlockMsg) string {
	var sb strings.Builder
	sb.WriteString("flock ")
	sb.WriteString(string(m.Op))
	sb.WriteString(" job=")
	sb.WriteString(strconv.Itoa(int(m.Job)))
	switch m.Op {
	case FlockGrant:
		sb.WriteString(" level=")
		sb.WriteString(strconv.Itoa(m.Level))
		sb.WriteString(" negotiator=")
		sb.WriteString(strconv.Quote(m.Negotiator))
	case FlockDeny:
		sb.WriteString(" reason=")
		sb.WriteString(strconv.Quote(m.Reason))
	}
	return sb.String()
}

// refParseFlockMsg decodes one flock decision, strictly: exact field
// order, single spaces, Go-quoted strings.  Anything else — above
// all, a line cut short in transit — is an error.
func refParseFlockMsg(s string) (FlockMsg, error) {
	var m FlockMsg
	rest, ok := strings.CutPrefix(s, "flock ")
	if !ok {
		return m, fmt.Errorf("flock: not a flock record: %q", s)
	}
	op, rest, ok := strings.Cut(rest, " ")
	if !ok {
		return m, fmt.Errorf("flock: truncated after op %q", op)
	}
	m.Op = FlockOp(op)
	job, err := refCutIntField(&rest, "job", true)
	if err != nil {
		return m, err
	}
	if job < 0 {
		return m, fmt.Errorf("flock: negative job %d", job)
	}
	m.Job = JobID(job)
	switch m.Op {
	case FlockGrant:
		level, err := refCutIntField(&rest, "level", true)
		if err != nil {
			return m, err
		}
		if level < 1 {
			return m, fmt.Errorf("flock: grant level %d out of range", level)
		}
		m.Level = level
		if m.Negotiator, err = refCutQuotedField(&rest, "negotiator"); err != nil {
			return m, err
		}
		if m.Negotiator == "" {
			return m, fmt.Errorf("flock: grant names no negotiator")
		}
	case FlockDeny:
		if m.Reason, err = refCutQuotedField(&rest, "reason"); err != nil {
			return m, err
		}
	default:
		return m, fmt.Errorf("flock: unknown op %q", op)
	}
	if rest != "" {
		return m, fmt.Errorf("flock: trailing garbage %q", rest)
	}
	return m, nil
}

// refCutIntField consumes "key=<int>" (and, when more fields follow, the
// single space after it) from the front of *rest.
func refCutIntField(rest *string, key string, more bool) (int, error) {
	r, ok := strings.CutPrefix(*rest, key+"=")
	if !ok {
		return 0, fmt.Errorf("flock: expected %s= at %q", key, *rest)
	}
	var raw string
	if more {
		raw, r, ok = strings.Cut(r, " ")
		if !ok {
			return 0, fmt.Errorf("flock: truncated after %s", key)
		}
	} else {
		raw, r = r, ""
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("flock: field %s: %w", key, err)
	}
	// Reject non-canonical spellings ("+2", "007") that Atoi accepts:
	// they would re-encode differently and break the round trip.
	if raw != strconv.Itoa(v) {
		return 0, fmt.Errorf("flock: non-canonical %s=%q", key, raw)
	}
	*rest = r
	return v, nil
}

// refCutQuotedField consumes a trailing `key="..."` Go-quoted field.
func refCutQuotedField(rest *string, key string) (string, error) {
	r, ok := strings.CutPrefix(*rest, key+"=")
	if !ok {
		return "", fmt.Errorf("flock: expected %s= at %q", key, *rest)
	}
	v, err := strconv.Unquote(r)
	if err != nil {
		return "", fmt.Errorf("flock: field %s: %w", key, err)
	}
	// Canonical quoting only: Unquote accepts spellings (`...`,
	// "\x41") that Quote would not emit.
	if r != strconv.Quote(v) {
		return "", fmt.Errorf("flock: non-canonical %s=%s", key, r)
	}
	*rest = ""
	return v, nil
}
