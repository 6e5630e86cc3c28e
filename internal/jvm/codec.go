package jvm

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"github.com/errscope/grid/internal/record"
	"github.com/errscope/grid/internal/scope"
)

// Program serialization for the schedd's write-ahead journal.  A
// submitted job's program must survive a schedd crash, so the submit
// record carries the program in this line-based form: one header line
// (class name and image flag), then one line per step, each a kind
// word and fields in the journal grammar of package record.  The
// encoding is deterministic — identical programs encode to identical
// bytes — so journaled logs stay byte-stable per seed.

// EncodeProgram renders p into the journal line form.  A nil program
// encodes to the empty string and decodes back to nil.
func EncodeProgram(p *Program) string {
	if p == nil {
		return ""
	}
	b := record.AppendStr(append(make([]byte, 0, 64), "program"...), "class", p.Class)
	b = record.AppendBool(b, "corrupt", p.ImageCorrupt)
	for _, s := range p.Steps {
		switch s := s.(type) {
		case Compute:
			b = record.AppendInt(append(b, "\ncompute"...), "dur", int64(s.Duration))
		case Allocate:
			b = record.AppendInt(append(b, "\nallocate"...), "bytes", s.Bytes)
		case Free:
			b = record.AppendInt(append(b, "\nfree"...), "bytes", s.Bytes)
		case Throw:
			b = record.AppendStr(append(b, "\nthrow"...), "exception", s.Exception)
			b = record.AppendStr(b, "message", s.Message)
			b = append(append(b, " scope="...), s.Scope.String()...)
		case Exit:
			b = record.AppendInt(append(b, "\nexit"...), "code", int64(s.Code))
		case IORead:
			b = record.AppendStr(append(b, "\nioread"...), "path", s.Path)
			b = record.AppendInt(b, "offset", s.Offset)
			b = record.AppendInt(b, "length", int64(s.Length))
		case IOWrite:
			b = record.AppendStr(append(b, "\niowrite"...), "path", s.Path)
			b = record.AppendInt(b, "offset", s.Offset)
			b = record.AppendStr(b, "data", string(s.Data))
		default:
			// A step type the codec does not know cannot be made
			// durable; fail loudly rather than journal a lie.
			panic(fmt.Sprintf("jvm: EncodeProgram: unknown step type %T", s))
		}
	}
	return string(append(b, '\n'))
}

// ParseProgram decodes the output of EncodeProgram.  Any deviation
// from the expected form is an error: the journal frames its records
// with checksums, so a malformed program is a logic bug, not a torn
// write.
func ParseProgram(src string) (*Program, error) {
	if src == "" {
		return nil, nil
	}
	var c record.Cursor
	line, text, more := bytes.Cut([]byte(strings.TrimSuffix(src, "\n")), []byte{'\n'})
	head, ok := bytes.CutPrefix(line, []byte("program"))
	if !ok {
		return nil, fmt.Errorf("jvm: parse program: line %q is not a %q record", line, "program")
	}
	if err := c.Scan(head); err != nil {
		return nil, parseErr(err)
	}
	p := &Program{Class: c.Str("class"), ImageCorrupt: c.Bool("corrupt")}
	if c.Err != nil {
		return nil, parseErr(c.Err)
	}
	for more {
		line, text, more = bytes.Cut(text, []byte{'\n'})
		kind, fields, _ := bytes.Cut(line, []byte{' '})
		if err := c.Scan(fields); err != nil {
			return nil, parseErr(err)
		}
		var step Step
		switch string(kind) {
		case "compute":
			step = Compute{Duration: time.Duration(c.Int("dur"))}
		case "allocate":
			step = Allocate{Bytes: c.Int("bytes")}
		case "free":
			step = Free{Bytes: c.Int("bytes")}
		case "throw":
			t := Throw{Exception: c.Str("exception"), Message: c.Str("message")}
			// A Throw's scope defaults to zero (program scope at run
			// time); ParseScope rejects "none", so special-case it.
			if sc, _ := c.Get("scope"); c.Err == nil && string(sc) != scope.ScopeNone.String() {
				var err error
				if t.Scope, err = scope.ParseScope(string(sc)); err != nil {
					return nil, fmt.Errorf("jvm: parse program: throw scope: %w", err)
				}
			}
			step = t
		case "exit":
			step = Exit{Code: int(c.Int("code"))}
		case "ioread":
			step = IORead{Path: c.Str("path"), Offset: c.Int("offset"), Length: int(c.Int("length"))}
		case "iowrite":
			step = IOWrite{Path: c.Str("path"), Offset: c.Int("offset"), Data: []byte(c.Str("data"))}
		default:
			return nil, fmt.Errorf("jvm: parse program: unknown step %q", kind)
		}
		if c.Err != nil {
			return nil, parseErr(c.Err)
		}
		p.Steps = append(p.Steps, step)
	}
	return p, nil
}

func parseErr(err error) error { return fmt.Errorf("jvm: parse program: %w", err) }
