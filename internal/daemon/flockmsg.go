package daemon

import (
	"fmt"
	"strings"

	"github.com/errscope/grid/internal/record"
	"github.com/errscope/grid/internal/scope"
)

// The flock negotiation codec.  A flock decision is the one message
// that crosses pool-administration boundaries, so — like the scenario
// and journal formats — it travels as a canonical text record rather
// than a process-local struct: one line in the strict grammar of
// package record (fixed field order, single spaces, Go-quoted
// strings).  Canonical means ParseFlockMsg(EncodeFlockMsg(m)) == m and
// EncodeFlockMsg(ParseFlockMsg(s)) == s for every accepted s, the
// property the fuzz test pins.  A truncated or corrupted line is a
// parse error the receiving schedd scopes as a network failure — the
// reply is damaged, not the job.
//
//	flock grant job=7 level=2 negotiator="mm-p2"
//	flock deny job=7 reason="no live peer pool"

// FlockOp is the decision a flock reply carries.
type FlockOp string

// Flock reply operations.
const (
	// FlockGrant names a live peer negotiator the job may flock to.
	FlockGrant FlockOp = "grant"
	// FlockDeny reports that no peer at or past the requested level
	// is alive; the job should return home.
	FlockDeny FlockOp = "deny"
)

// FlockMsg is one decoded flock decision.
type FlockMsg struct {
	Op  FlockOp
	Job JobID
	// Level is the flocking level granted: the 1-based index into the
	// configured peer order of the negotiator below.  Grant only.
	Level int
	// Negotiator is the peer negotiator's actor name.  Grant only.
	Negotiator string
	// Reason explains a deny.
	Reason string
}

// EncodeFlockMsg renders the canonical one-line encoding.
func EncodeFlockMsg(m FlockMsg) string {
	b := append(append(make([]byte, 0, 64), "flock "...), m.Op...)
	b = record.AppendInt(b, "job", int64(m.Job))
	switch m.Op {
	case FlockGrant:
		b = record.AppendInt(b, "level", int64(m.Level))
		b = record.AppendStr(b, "negotiator", m.Negotiator)
	case FlockDeny:
		b = record.AppendStr(b, "reason", m.Reason)
	}
	return string(b)
}

// ParseFlockMsg decodes one flock decision, strictly.  Anything but
// the canonical line — above all, a line cut short in transit — is an
// error.
func ParseFlockMsg(s string) (FlockMsg, error) {
	rest, ok := strings.CutPrefix(s, "flock ")
	if !ok {
		return FlockMsg{}, fmt.Errorf("flock: not a flock record: %q", s)
	}
	i := strings.IndexByte(rest, ' ')
	if i < 0 {
		return FlockMsg{}, fmt.Errorf("flock: truncated after op %q", rest)
	}
	op := rest[:i]
	m := FlockMsg{Op: FlockOp(op)}
	r := record.NewReader("flock: ", rest[i:])
	m.Job = JobID(r.Int("job"))
	switch m.Op {
	case FlockGrant:
		m.Level, m.Negotiator = int(r.Int("level")), r.Str("negotiator")
	case FlockDeny:
		m.Reason = r.Str("reason")
	}
	if err := r.End(); err != nil {
		return FlockMsg{}, err
	}
	switch {
	case m.Job < 0:
		return FlockMsg{}, fmt.Errorf("flock: negative job %d", m.Job)
	case m.Op != FlockGrant && m.Op != FlockDeny:
		return FlockMsg{}, fmt.Errorf("flock: unknown op %q", op)
	case m.Op == FlockGrant && m.Level < 1:
		return FlockMsg{}, fmt.Errorf("flock: grant level %d out of range", m.Level)
	case m.Op == FlockGrant && m.Negotiator == "":
		return FlockMsg{}, fmt.Errorf("flock: grant names no negotiator")
	}
	return m, nil
}

// flockReplyErr scopes a damaged flock reply: the network delivered
// bytes that do not parse, so the loss is the reply's, not the job's
// — the schedd keeps the job where it is and asks again.
func flockReplyErr(cause error) *scope.Error {
	e := scope.New(scope.ScopeNetwork, "FlockReplyCorrupt",
		"flock reply did not survive transit: %v", cause)
	e.Kind = scope.KindEscaping
	return e
}

// TruncateFlockReply returns the body with its flock payload cut to
// at most n bytes, for fault injection; non-flock bodies pass through
// unchanged.  Exported so the fault injector can damage the payload
// without knowing the daemon's message types.
func TruncateFlockReply(body any, n int) any {
	m, ok := body.(flockReplyMsg)
	if !ok {
		return body
	}
	if n < 0 {
		n = 0
	}
	if n < len(m.Payload) {
		m.Payload = m.Payload[:n]
	}
	return m
}
