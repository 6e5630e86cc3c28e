package jvm

// The program codec as it stood before package record (codec.go's
// EncodeProgram, ParseProgram and its map-per-line splitter), kept
// verbatim as the oracle for FuzzParseProgram and the table tests:
// only the names are prefixed "ref" so both codecs live in one
// package.  It defines which texts are programs; do not optimise or
// fix it.

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"github.com/errscope/grid/internal/scope"
)

// refEncodeProgram renders p into the journal line form.  A nil program
// encodes to the empty string and decodes back to nil.
func refEncodeProgram(p *Program) string {
	if p == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "program class=%s corrupt=%t\n", strconv.Quote(p.Class), p.ImageCorrupt)
	for _, s := range p.Steps {
		switch s := s.(type) {
		case Compute:
			fmt.Fprintf(&b, "compute dur=%d\n", int64(s.Duration))
		case Allocate:
			fmt.Fprintf(&b, "allocate bytes=%d\n", s.Bytes)
		case Free:
			fmt.Fprintf(&b, "free bytes=%d\n", s.Bytes)
		case Throw:
			fmt.Fprintf(&b, "throw exception=%s message=%s scope=%s\n",
				strconv.Quote(s.Exception), strconv.Quote(s.Message), s.Scope)
		case Exit:
			fmt.Fprintf(&b, "exit code=%d\n", s.Code)
		case IORead:
			fmt.Fprintf(&b, "ioread path=%s offset=%d length=%d\n",
				strconv.Quote(s.Path), s.Offset, s.Length)
		case IOWrite:
			fmt.Fprintf(&b, "iowrite path=%s offset=%d data=%s\n",
				strconv.Quote(s.Path), s.Offset, strconv.Quote(string(s.Data)))
		default:
			// A step type the codec does not know cannot be made
			// durable; fail loudly rather than journal a lie.
			panic(fmt.Sprintf("jvm: EncodeProgram: unknown step type %T", s))
		}
	}
	return b.String()
}

// refParseProgram decodes the output of EncodeProgram.  Any deviation
// from the expected form is an error: the journal frames its records
// with checksums, so a malformed program is a logic bug, not a torn
// write.
func refParseProgram(src string) (*Program, error) {
	if src == "" {
		return nil, nil
	}
	lines := strings.Split(strings.TrimSuffix(src, "\n"), "\n")
	head, err := refFields(lines[0], "program")
	if err != nil {
		return nil, err
	}
	p := &Program{}
	if p.Class, err = refUnquote(head, "class"); err != nil {
		return nil, err
	}
	if p.ImageCorrupt, err = refParseBool(head, "corrupt"); err != nil {
		return nil, err
	}
	for _, line := range lines[1:] {
		kind, _, _ := strings.Cut(line, " ")
		kv, err := refFields(line, kind)
		if err != nil {
			return nil, err
		}
		var step Step
		switch kind {
		case "compute":
			d, err := refParseInt(kv, "dur")
			if err != nil {
				return nil, err
			}
			step = Compute{Duration: time.Duration(d)}
		case "allocate":
			n, err := refParseInt(kv, "bytes")
			if err != nil {
				return nil, err
			}
			step = Allocate{Bytes: n}
		case "free":
			n, err := refParseInt(kv, "bytes")
			if err != nil {
				return nil, err
			}
			step = Free{Bytes: n}
		case "throw":
			var t Throw
			if t.Exception, err = refUnquote(kv, "exception"); err != nil {
				return nil, err
			}
			if t.Message, err = refUnquote(kv, "message"); err != nil {
				return nil, err
			}
			// A Throw's scope defaults to zero (program scope at run
			// time); ParseScope rejects "none", so special-case it.
			if kv["scope"] != scope.ScopeNone.String() {
				if t.Scope, err = scope.ParseScope(kv["scope"]); err != nil {
					return nil, fmt.Errorf("jvm: parse program: throw scope: %w", err)
				}
			}
			step = t
		case "exit":
			c, err := refParseInt(kv, "code")
			if err != nil {
				return nil, err
			}
			step = Exit{Code: int(c)}
		case "ioread":
			var r IORead
			if r.Path, err = refUnquote(kv, "path"); err != nil {
				return nil, err
			}
			if r.Offset, err = refParseInt(kv, "offset"); err != nil {
				return nil, err
			}
			n, err := refParseInt(kv, "length")
			if err != nil {
				return nil, err
			}
			r.Length = int(n)
			step = r
		case "iowrite":
			var w IOWrite
			if w.Path, err = refUnquote(kv, "path"); err != nil {
				return nil, err
			}
			if w.Offset, err = refParseInt(kv, "offset"); err != nil {
				return nil, err
			}
			data, err := refUnquote(kv, "data")
			if err != nil {
				return nil, err
			}
			w.Data = []byte(data)
			step = w
		default:
			return nil, fmt.Errorf("jvm: parse program: unknown step %q", kind)
		}
		p.Steps = append(p.Steps, step)
	}
	return p, nil
}

// refFields splits "kind k1=v1 k2=v2 ..." into its key/value pairs,
// checking the leading kind token.  Quoted values may contain spaces;
// the splitter respects strconv.Quote escaping.
func refFields(line, kind string) (map[string]string, error) {
	rest, ok := strings.CutPrefix(line, kind)
	if !ok {
		return nil, fmt.Errorf("jvm: parse program: line %q is not a %q record", line, kind)
	}
	kv := map[string]string{}
	for rest != "" {
		rest = strings.TrimPrefix(rest, " ")
		eq := strings.IndexByte(rest, '=')
		if eq <= 0 {
			return nil, fmt.Errorf("jvm: parse program: malformed field in %q", line)
		}
		key := rest[:eq]
		rest = rest[eq+1:]
		var val string
		if strings.HasPrefix(rest, `"`) {
			// Quoted value: find its closing quote by scanning past
			// backslash escapes.
			end := 1
			for end < len(rest) {
				if rest[end] == '\\' {
					end += 2
					continue
				}
				if rest[end] == '"' {
					break
				}
				end++
			}
			if end >= len(rest) {
				return nil, fmt.Errorf("jvm: parse program: unterminated quote in %q", line)
			}
			val, rest = rest[:end+1], rest[end+1:]
		} else if sp := strings.IndexByte(rest, ' '); sp >= 0 {
			val, rest = rest[:sp], rest[sp:]
		} else {
			val, rest = rest, ""
		}
		kv[key] = val
	}
	return kv, nil
}

func refUnquote(kv map[string]string, key string) (string, error) {
	v, ok := kv[key]
	if !ok {
		return "", fmt.Errorf("jvm: parse program: missing field %q", key)
	}
	s, err := strconv.Unquote(v)
	if err != nil {
		return "", fmt.Errorf("jvm: parse program: field %q: %w", key, err)
	}
	return s, nil
}

func refParseInt(kv map[string]string, key string) (int64, error) {
	v, ok := kv[key]
	if !ok {
		return 0, fmt.Errorf("jvm: parse program: missing field %q", key)
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("jvm: parse program: field %q: %w", key, err)
	}
	return n, nil
}

func refParseBool(kv map[string]string, key string) (bool, error) {
	v, ok := kv[key]
	if !ok {
		return false, fmt.Errorf("jvm: parse program: missing field %q", key)
	}
	b, err := strconv.ParseBool(v)
	if err != nil {
		return false, fmt.Errorf("jvm: parse program: field %q: %w", key, err)
	}
	return b, nil
}
