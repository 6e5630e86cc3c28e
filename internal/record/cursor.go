package record

import (
	"bytes"
	"fmt"
	"strconv"
	"unicode/utf8"
)

// Cursor is the lenient reader over one journal line: the key and raw
// value of every key=value pair, in line order, in a slice reused from
// line to line.  Values are bare tokens (numbers, names) or Go-quoted
// strings that may contain spaces, quotes, and escaped newlines.
// Lookup is by key, last duplicate wins, and keys nobody asks for are
// ignored.
//
// The typed accessors share one sticky error, Err: the first field that
// is missing or malformed sets it, and every accessor after it returns
// the zero value without looking, so a decoder reads its fields in the
// order it always did and checks Err where it used to return.  A caller
// may set Err itself, to stop the reads after a failure of its own.
type Cursor struct {
	kv  []field
	Err error
}

type field struct {
	key, val []byte
	used     bool // Get has returned it
}

// Scan points the cursor at line and clears Err.  The spans alias line.
func (c *Cursor) Scan(line []byte) error {
	c.kv, c.Err = c.kv[:0], nil
	for i := 0; i < len(line); {
		if line[i] == ' ' {
			i++
			continue
		}
		eq := bytes.IndexByte(line[i:], '=')
		if eq < 0 {
			return fmt.Errorf("no '=' in %q", line[i:])
		}
		key := line[i : i+eq]
		i += eq + 1
		end := i
		if i < len(line) && line[i] == '"' {
			for end++; end < len(line) && line[end] != '"'; end++ {
				if line[end] == '\\' {
					end++
				}
			}
			if end >= len(line) {
				return fmt.Errorf("unterminated quote for %q", key)
			}
			end++
		} else if sp := bytes.IndexByte(line[i:], ' '); sp >= 0 {
			end += sp
		} else {
			end = len(line)
		}
		c.kv = append(c.kv, field{key: key, val: line[i:end]})
		i = end
	}
	return nil
}

// Len is the number of fields on the line, duplicates included.
func (c *Cursor) Len() int { return len(c.kv) }

// Field returns the key and raw value of the i-th field in line order,
// for a decoder that must see every key — to refuse unknown ones.
func (c *Cursor) Field(i int) (key, val []byte) { return c.kv[i].key, c.kv[i].val }

// Get returns the raw value of key, quotes included.
func (c *Cursor) Get(key string) ([]byte, bool) {
	for i := len(c.kv) - 1; i >= 0; i-- {
		if f := &c.kv[i]; string(f.key) == key {
			f.used = true
			return f.val, true
		}
	}
	return nil, false
}

// AppendUsed appends the fields Get has returned since Scan, as written
// and in line order, one space apart: the line as its decoder read it,
// without the fields and duplicates it ignored.
func (c *Cursor) AppendUsed(dst []byte) []byte {
	n := len(dst)
	for _, f := range c.kv {
		if f.used {
			if len(dst) > n {
				dst = append(dst, ' ')
			}
			dst = append(append(append(dst, f.key...), '='), f.val...)
		}
	}
	return dst
}

// Need is Get for a mandatory field.
func (c *Cursor) Need(key string) []byte {
	if c.Err != nil {
		return nil
	}
	raw, ok := c.Get(key)
	if !ok {
		c.Err = fmt.Errorf("missing field %q", key)
	}
	return raw
}

// fail records a malformed field.
func (c *Cursor) fail(key string, err error) {
	c.Err = fmt.Errorf("field %q: %w", key, err)
}

// Int is the value of key by strconv.ParseInt(…, 10, 64).
func (c *Cursor) Int(key string) int64 {
	raw := c.Need(key)
	if c.Err != nil {
		return 0
	}
	v, err := strconv.ParseInt(string(raw), 10, 64)
	if err != nil {
		c.fail(key, err)
	}
	return v
}

// Bool is the value of key by strconv.ParseBool.
func (c *Cursor) Bool(key string) bool {
	raw := c.Need(key)
	if c.Err != nil {
		return false
	}
	v, err := strconv.ParseBool(string(raw))
	if err != nil {
		c.fail(key, err)
	}
	return v
}

// Str returns the unquoted value of key as a fresh string.
func (c *Cursor) Str(key string) string { return c.Unquote(key, c.Need(key)) }

// Unquote is strconv.Unquote over the raw bytes of key's value.  A
// double-quoted value with no backslash, no newline and valid UTF-8
// is its own interior — Unquote's escape-free case, taken here
// without first copying the bytes into a string for it.
func (c *Cursor) Unquote(key string, raw []byte) string {
	if c.Err != nil {
		return ""
	}
	if n := len(raw); n >= 2 && raw[0] == '"' && raw[n-1] == '"' {
		if in := raw[1 : n-1]; !bytes.ContainsAny(in, "\\\n\"") && utf8.Valid(in) {
			return string(in)
		}
	}
	v, err := strconv.Unquote(string(raw))
	if err != nil {
		c.fail(key, err)
	}
	return v
}
