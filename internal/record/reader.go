package record

import (
	"fmt"
	"strconv"
	"strings"
)

// Reader reads one canonical record field by field, in the order the
// caller asks for them, each as ` key=value` — its one separating space
// first, exactly as AppendInt and AppendStr write it.  Errors are
// sticky: the first one is kept, every read after it returns the zero
// value without looking, and End reports it, so a parser reads all its
// fields and checks once.
//
// The caller decides the order of the checks.  A record whose trailer
// must hold before any field is trusted calls Unseal first; one whose
// field errors are the more useful report reads its fields first.
type Reader struct {
	line   string
	rest   string // the unread part of line: fields, each after its space
	prefix string // starts every error: the codec's name, "ckpt: "
	err    error
}

// NewReader starts a Reader at the start of line.  prefix starts every
// error it reports.
func NewReader(prefix, line string) Reader {
	return Reader{line: line, rest: line, prefix: prefix}
}

// Tag consumes tag, the word every record of its kind starts with,
// which a space must follow; what names that kind in the error.
func (r *Reader) Tag(tag, what string) {
	rest, ok := strings.CutPrefix(r.rest, tag)
	if !ok || !strings.HasPrefix(rest, " ") {
		r.fail("not %s: %q", what, r.line)
	}
	r.rest = rest
}

func (r *Reader) fail(format string, args ...any) {
	r.err = fmt.Errorf(r.prefix+format, args...)
}

// key consumes " key=", the start of the next field, or reports that
// it is not there; the caller records that with expected.
func (r *Reader) key(key string) bool {
	rest := r.rest
	if r.err != nil || len(rest) <= len(key)+1 || rest[0] != ' ' || rest[len(key)+1] != '=' || rest[1:len(key)+1] != key {
		return false
	}
	r.rest = rest[len(key)+2:]
	return true
}

// expected records key's failure, out of line so that key inlines.
func (r *Reader) expected(key string) {
	if r.err == nil {
		r.fail("expected %s= at %q", key, strings.TrimPrefix(r.rest, " "))
	}
}

// Int reads the next field as key=<int64>.  Only the spelling
// strconv.FormatInt writes is accepted: ParseInt first, so a value that
// is no number reports ParseInt's error, then the shape — "0", or an
// optional minus and a first digit 1-9 — because ParseInt also takes
// "+2", "007" and "-0", which re-encode differently.
func (r *Reader) Int(key string) int64 {
	if !r.key(key) {
		r.expected(key)
		return 0
	}
	raw := r.rest
	if j := strings.IndexByte(raw, ' '); j >= 0 {
		raw = raw[:j]
	}
	r.rest = r.rest[len(raw):]
	v, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		r.fail("field %s: %w", key, err)
		return 0
	}
	if d := strings.TrimPrefix(raw, "-"); raw != "0" && (d[0] < '1' || d[0] > '9') {
		r.fail("non-canonical %s=%q", key, raw)
		return 0
	}
	return v
}

// Str reads the next field as key="<quoted>".  Only the spelling
// strconv.Quote writes is accepted: a value that unquotes fine but
// would re-quote differently is an error.  A value that is printable
// ASCII without quote or backslash is its own quoting, and comes back
// as a slice of the line.
func (r *Reader) Str(key string) string {
	if !r.key(key) {
		r.expected(key)
		return ""
	}
	rest := r.rest
	var v string
	end := -1
	if strings.HasPrefix(rest, `"`) {
		end = strings.IndexByte(rest[1:], '"')
	}
	if end >= 0 && plainASCII(rest[1:1+end]) {
		v, rest = rest[1:1+end], rest[end+2:]
	} else {
		raw, err := strconv.QuotedPrefix(rest)
		if err == nil {
			v, err = strconv.Unquote(raw)
		}
		if err != nil {
			r.fail("field %s: %w", key, err)
			return ""
		}
		if raw != strconv.Quote(v) {
			r.fail("non-canonical %s=%s", key, raw)
			return ""
		}
		rest = rest[len(raw):]
	}
	if rest != "" && rest[0] != ' ' {
		r.fail("expected space after %s at %q", key, rest)
		return ""
	}
	r.rest = rest
	return v
}

// plainASCII reports whether strconv.Quote would render v as the same
// bytes between two quotes: printable ASCII with nothing to escape.
func plainASCII(v string) bool {
	for i := 0; i < len(v); i++ {
		if c := v[i]; c < ' ' || c > '~' || c == '"' || c == '\\' {
			return false
		}
	}
	return true
}

// Unseal checks the CRC trailer that ends the line — exactly eight
// lowercase hex digits, no space before " crc=", and the checksum of
// every byte before it — and cuts it off the unread rest.
func (r *Reader) Unseal() {
	if r.err != nil {
		return
	}
	i := strings.LastIndex(r.rest, " crc=")
	if i < 0 {
		r.fail("record has no crc trailer: %q", r.line)
		return
	}
	raw := r.rest[i+len(" crc="):]
	if len(raw) != 8 {
		r.fail("crc %q is not 8 hex digits", raw)
		return
	}
	var sum uint32
	for j := 0; j < len(raw); j++ {
		d := strings.IndexByte(hexDigits, raw[j])
		if d < 0 {
			r.fail("non-canonical crc=%q", raw)
			return
		}
		sum = sum<<4 | uint32(d)
	}
	if got := checksum(r.line[:len(r.line)-len(" crc=")-8]); got != sum {
		r.fail("crc mismatch: record says %08x, bytes say %08x", sum, got)
		return
	}
	if i > 0 && r.rest[i-1] == ' ' {
		r.fail("space before the crc trailer: %q", r.line)
		return
	}
	r.rest = r.rest[:i]
}

// End reports the first error, or bytes left after the last field.
func (r *Reader) End() error {
	if r.err == nil && r.rest != "" {
		r.fail("trailing bytes %q", r.rest)
	}
	return r.err
}
