package faultinject

// The scenario codec as it stood before package record (scenario.go's
// Encode, Parse, parseFault and its quote-aware splitter), kept
// verbatim as the oracle for FuzzParseScenario and the table tests:
// only the names are prefixed "ref" so both codecs live in one
// package.  It defines which texts are scenarios; do not optimise or
// fix it — refEncode keeps the parent's non-canonical site.

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// refEncode renders the scenario in its line format:
//
//	seed = 7
//	fault class=crash site=machine:c001 at=5m0s for=2h0m0s
//	fault class=permission site=submit path="/home/user/out" at=1m0s
//
// Fields appear in a fixed order and zero-valued trigger fields are
// omitted, so Encode is a canonical form: Encode(Parse(Encode(s)))
// is byte-identical to Encode(s).
func refEncode(s Scenario) string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed = %d\n", s.Seed)
	for _, f := range s.Faults {
		fmt.Fprintf(&b, "fault class=%s site=%s", f.Class, f.Site)
		if f.Path != "" {
			fmt.Fprintf(&b, " path=%s", strconv.Quote(f.Path))
		}
		if f.At != 0 {
			fmt.Fprintf(&b, " at=%s", f.At)
		}
		if f.For != 0 {
			fmt.Fprintf(&b, " for=%s", f.For)
		}
		if f.Count != 0 {
			fmt.Fprintf(&b, " count=%d", f.Count)
		}
		if f.Param != 0 {
			fmt.Fprintf(&b, " param=%d", f.Param)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// refParse reads the line format produced by Encode.  Blank lines and
// #-comments are ignored.
func refParse(text string) (Scenario, error) {
	var s Scenario
	seenSeed := false
	for i, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		lineNo := i + 1
		if k, v, ok := strings.Cut(line, "="); ok && strings.TrimSpace(k) == "seed" {
			n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			if err != nil {
				return s, fmt.Errorf("line %d: bad seed %q", lineNo, strings.TrimSpace(v))
			}
			s.Seed = n
			seenSeed = true
			continue
		}
		rest, ok := strings.CutPrefix(line, "fault ")
		if !ok {
			return s, fmt.Errorf("line %d: expected \"seed = N\" or \"fault ...\", got %q", lineNo, line)
		}
		f, err := refParseFault(rest)
		if err != nil {
			return s, fmt.Errorf("line %d: %v", lineNo, err)
		}
		s.Faults = append(s.Faults, f)
	}
	if !seenSeed {
		return s, fmt.Errorf("scenario has no \"seed = N\" line")
	}
	return s, nil
}

// refParseFault reads the key=value fields after the "fault " keyword.
func refParseFault(rest string) (Fault, error) {
	var f Fault
	fields, err := refSplitFields(rest)
	if err != nil {
		return f, err
	}
	for _, field := range fields {
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return f, fmt.Errorf("field %q is not key=value", field)
		}
		switch key {
		case "class":
			f.Class = Class(val)
		case "site":
			f.Site = val
		case "path":
			f.Path = val
		case "at":
			f.At, err = time.ParseDuration(val)
		case "for":
			f.For, err = time.ParseDuration(val)
		case "count":
			f.Count, err = strconv.Atoi(val)
		case "param":
			f.Param, err = strconv.ParseInt(val, 10, 64)
		default:
			return f, fmt.Errorf("unknown field %q", key)
		}
		if err != nil {
			return f, fmt.Errorf("bad %s %q: %v", key, val, err)
		}
	}
	if !validClass(f.Class) {
		return f, fmt.Errorf("unknown fault class %q", f.Class)
	}
	if f.Site == "" {
		return f, fmt.Errorf("fault %s has no site", f.Class)
	}
	if f.At < 0 || f.For < 0 || f.Count < 0 {
		return f, fmt.Errorf("fault %s: negative trigger", f.Class)
	}
	return f, nil
}

// refSplitFields splits on spaces, honoring double-quoted values (the
// path field quotes with strconv, so embedded spaces survive).
func refSplitFields(s string) ([]string, error) {
	var fields []string
	for s = strings.TrimSpace(s); s != ""; s = strings.TrimLeft(s, " ") {
		if q := strings.IndexByte(s, '"'); q >= 0 && q < len(s) && (strings.IndexByte(s, ' ') == -1 || q < strings.IndexByte(s, ' ')) {
			// Field contains a quoted value: find its closing quote.
			tail := s[q+1:]
			end := -1
			for j := 0; j < len(tail); j++ {
				if tail[j] == '\\' {
					j++
					continue
				}
				if tail[j] == '"' {
					end = j
					break
				}
			}
			if end < 0 {
				return nil, fmt.Errorf("unterminated quote in %q", s)
			}
			raw := s[:q+1+end+1]
			key := raw[:q]
			unq, err := strconv.Unquote(raw[q:])
			if err != nil {
				return nil, fmt.Errorf("bad quoted value in %q: %v", raw, err)
			}
			fields = append(fields, key+unq)
			s = s[len(raw):]
			continue
		}
		sp := strings.IndexByte(s, ' ')
		if sp < 0 {
			fields = append(fields, s)
			break
		}
		fields = append(fields, s[:sp])
		s = s[sp:]
	}
	return fields, nil
}
