package scope

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"github.com/errscope/grid/internal/record"
)

// Result is the program wrapper's report of one execution attempt,
// carried from inside the virtual machine to the starter through an
// indirect channel — a result file (Section 4 of the paper).  The
// starter examines this result and ignores the JVM exit code entirely,
// because the exit code cannot distinguish error scopes (Figure 4).
type Result struct {
	// Status describes how the attempt concluded.
	Status ResultStatus
	// ExitCode is the program's own exit code when Status is
	// StatusExited (main completed or System.exit was called).
	ExitCode int
	// Exception is the name of the thrown exception or error when
	// Status is StatusException or StatusEscape.
	Exception string
	// Scope is the wrapper's classification of the error, when any.
	Scope Scope
	// Message is a human-readable elaboration.
	Message string
}

// ResultStatus is the coarse outcome of an execution attempt.
type ResultStatus int

const (
	// StatusExited: the program exited by completing main or by
	// calling System.exit.  A program result of Program scope.
	StatusExited ResultStatus = iota
	// StatusException: the program threw an exception that the
	// wrapper caught and classified as a program result (Program
	// scope) — e.g. ArrayIndexOutOfBoundsException.
	StatusException
	// StatusEscape: the wrapper caught an error that violates the
	// program's reasonable expectations of its environment — an
	// escaping error of wider-than-program scope.
	StatusEscape
	// StatusNoResult: no result file was produced at all.  The
	// starter must treat the attempt as an escaping error of
	// remote-resource scope: the execution environment could not
	// even run the wrapper.
	StatusNoResult
)

var resultStatusNames = [...]string{
	StatusExited:    "exited",
	StatusException: "exception",
	StatusEscape:    "escape",
	StatusNoResult:  "no-result",
}

// String returns the canonical name of the status.
func (s ResultStatus) String() string {
	if s < 0 || int(s) >= len(resultStatusNames) {
		return fmt.Sprintf("status(%d)", int(s))
	}
	return resultStatusNames[s]
}

// ParseResultStatus converts a canonical status name into a
// ResultStatus.
func ParseResultStatus(name string) (ResultStatus, error) {
	for i, n := range resultStatusNames {
		if n == name {
			return ResultStatus(i), nil
		}
	}
	return StatusNoResult, fmt.Errorf("scope: unknown result status %q", name)
}

// Err converts the result into the scoped error it represents, or nil
// for a successful exit.  A nonzero exit code is still a *program*
// result: it is an explicit error of Program scope, because the user
// wants to see it.
func (r *Result) Err() error {
	switch r.Status {
	case StatusExited:
		if r.ExitCode == 0 {
			return nil
		}
		return New(ScopeProgram, "NonZeroExit", "program exited with code %d", r.ExitCode)
	case StatusException:
		e := New(ScopeProgram, r.Exception, "%s", r.Message)
		return e
	case StatusEscape:
		e := New(r.ErrScope(), r.Exception, "%s", r.Message)
		e.Kind = KindEscaping
		return e
	default:
		e := New(ScopeRemoteResource, "NoResultFile", "the execution environment produced no result file")
		e.Kind = KindEscaping
		return e
	}
}

// ErrScope returns ScopeOf(r.Err()) — ScopeNone for success — without
// building the error: what a caller that only sorts results by scope
// (the pool's goodput/badput split) needs.
func (r *Result) ErrScope() Scope {
	switch r.Status {
	case StatusExited:
		if r.ExitCode == 0 {
			return ScopeNone
		}
		return ScopeProgram
	case StatusException:
		return ScopeProgram
	case StatusEscape:
		// A record carrying no usable scope (hand-written or damaged)
		// must not default to a narrow reading: the wrapper reported
		// an environmental escape, so the widest safe attribution is
		// the execution environment itself.
		if !r.Scope.Valid() {
			return ScopeRemoteResource
		}
		return r.Scope
	default:
		return ScopeRemoteResource
	}
}

// The result file is a line-oriented key = value document, in the
// spirit of the ClassAd-adjacent formats Condor uses for its
// persistent state.  It is deliberately trivial to parse so that even
// a crippled environment can produce one — a grammar of its own, not
// package record's, sharing only its quoter for the message.
//
// The final line is always the end-of-record marker "end = ok".  A
// starter that crashes mid-write — or a scratch disk that fills —
// leaves a file without the marker, and the decoder rejects it, so a
// half-written "status = exited" can never be read as a clean program
// exit attributed to the job.

// endMarker terminates every well-formed result file.
const endMarker = "ok"

// AppendEncoded appends the result file representation of r to b and
// returns the extended slice — the allocation-free core of Encode.
func (r *Result) AppendEncoded(b []byte) []byte {
	b = append(b, "status = "...)
	b = append(b, r.Status.String()...)
	b = append(b, "\nexit_code = "...)
	b = strconv.AppendInt(b, int64(r.ExitCode), 10)
	b = append(b, '\n')
	if r.Exception != "" {
		b = append(b, "exception = "...)
		b = append(b, r.Exception...)
		b = append(b, '\n')
	}
	if r.Scope != ScopeNone {
		b = append(b, "scope = "...)
		b = append(b, r.Scope.String()...)
		b = append(b, '\n')
	}
	if r.Message != "" {
		b = append(b, "message = "...)
		b = record.AppendQuote(b, r.Message)
		b = append(b, '\n')
	}
	b = append(b, "end = "...)
	b = append(b, endMarker...)
	return append(b, '\n')
}

// Encode writes the result file representation of r to w.
func (r *Result) Encode(w io.Writer) error {
	_, err := w.Write(r.AppendEncoded(make([]byte, 0, 96)))
	return err
}

// EncodeString returns the result file contents as a string.
func (r *Result) EncodeString() string {
	return string(r.AppendEncoded(make([]byte, 0, 96)))
}

// DecodeResultString parses a result file held in a string, line by
// line with no intermediate reader or scanner.  Unknown keys are
// ignored for forward compatibility; missing keys take zero values.  A
// file that cannot be parsed — or that lacks the trailing "end = ok"
// marker and is therefore truncation-evident — yields an error; the
// starter then treats the attempt as StatusNoResult, an escaping error
// of remote-resource scope, never a program result charged to the job.
// The failure Result returned alongside any error is StatusNoResult,
// so even a caller that ignores the error cannot read a half-written
// file as a clean exit.
func DecodeResultString(s string) (Result, error) {
	noResult := Result{Status: StatusNoResult}
	var r Result
	line := 0
	seenStatus := false
	seenEnd := false
	for len(s) > 0 && !seenEnd {
		var raw string
		if i := strings.IndexByte(s, '\n'); i >= 0 {
			raw, s = s[:i], s[i+1:]
		} else {
			raw, s = s, ""
		}
		line++
		text := strings.TrimSpace(raw)
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		key, value, ok := strings.Cut(text, "=")
		if !ok {
			return noResult, fmt.Errorf("scope: result file line %d: no '=' in %q", line, text)
		}
		key = strings.TrimSpace(key)
		value = strings.TrimSpace(value)
		switch key {
		case "status":
			st, err := ParseResultStatus(value)
			if err != nil {
				return noResult, fmt.Errorf("scope: result file line %d: %w", line, err)
			}
			r.Status = st
			seenStatus = true
		case "exit_code":
			n, err := strconv.Atoi(value)
			if err != nil {
				return noResult, fmt.Errorf("scope: result file line %d: bad exit_code %q", line, value)
			}
			r.ExitCode = n
		case "exception":
			r.Exception = value
		case "scope":
			s, err := ParseScope(value)
			if err != nil {
				return noResult, fmt.Errorf("scope: result file line %d: %w", line, err)
			}
			r.Scope = s
		case "message":
			msg, err := strconv.Unquote(value)
			if err != nil {
				// Accept unquoted messages written by hand.
				msg = value
			}
			r.Message = msg
		case "end":
			if value != endMarker {
				return noResult, fmt.Errorf("scope: result file line %d: corrupt end marker %q", line, value)
			}
			seenEnd = true
		}
		// Anything past the marker is debris from a later,
		// interrupted rewrite; the sealed record stands — the loop
		// condition stops at seenEnd.
	}
	if !seenStatus {
		return noResult, fmt.Errorf("scope: result file missing status")
	}
	if !seenEnd {
		return noResult, fmt.Errorf("scope: result file truncated: no end-of-record marker")
	}
	return r, nil
}
