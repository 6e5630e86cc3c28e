package scope

import (
	"errors"
	"fmt"
)

// Kind distinguishes the three ways an error may be communicated
// (Section 3.1 of the paper).
type Kind int

const (
	// KindImplicit marks a result presented as valid but otherwise
	// determined to be false.  The package never constructs implicit
	// errors deliberately (Principle 1); the kind exists so that
	// detectors — duplicate computation, checksum comparison — can
	// label what they find.
	KindImplicit Kind = iota

	// KindExplicit marks a result that describes an inability to
	// carry out the requested action, conforming to the interface of
	// the routine that returned it.
	KindExplicit

	// KindEscaping marks a result accompanied by a change in control
	// flow, delivered not to the immediate caller but to a higher
	// level of software, because the routine could not represent the
	// error within its interface.
	KindEscaping
)

var kindNames = [...]string{
	KindImplicit: "implicit",
	KindExplicit: "explicit",
	KindEscaping: "escaping",
}

// String returns the canonical name of the kind.
func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindNames[k]
}

// ParseKind converts a canonical kind name back into a Kind.
func ParseKind(name string) (Kind, error) {
	for i, n := range kindNames {
		if n == name {
			return Kind(i), nil
		}
	}
	return KindImplicit, fmt.Errorf("scope: unknown kind name %q", name)
}

// Error is an error annotated with the portion of the system it
// invalidates.  It is the unit of propagation between the components
// of the grid: a receiver that cannot understand Code can still act
// correctly on Scope.
type Error struct {
	// Scope is the portion of the system the error invalidates.
	Scope Scope
	// Kind is how the error is being communicated.
	Kind Kind
	// Code is a short machine-readable identifier drawn from the
	// vocabulary of the interface that produced the error, e.g.
	// "FileNotFound" or "OutOfMemoryError".
	Code string
	// Message is a human-readable description.
	Message string
	// Origin names the component that first discovered the error,
	// e.g. "starter" or "jvm".
	Origin string
	// Cause is the underlying error, if any.
	Cause error
}

// Error implements the error interface.
func (e *Error) Error() string {
	msg := e.Message
	if msg == "" && e.Cause != nil {
		msg = e.Cause.Error()
	}
	if e.Origin != "" {
		return fmt.Sprintf("%s: %s [%s, %s scope]: %s", e.Origin, e.Code, e.Kind, e.Scope, msg)
	}
	return fmt.Sprintf("%s [%s, %s scope]: %s", e.Code, e.Kind, e.Scope, msg)
}

// Unwrap returns the underlying cause, enabling errors.Is/As chains.
func (e *Error) Unwrap() error { return e.Cause }

// Is reports whether target is a *Error with the same Code, allowing
// errors.Is comparisons against sentinel scoped errors.
func (e *Error) Is(target error) bool {
	t, ok := target.(*Error)
	if !ok {
		return false
	}
	return e.Code == t.Code && (t.Scope == ScopeNone || t.Scope == e.Scope)
}

// New constructs an explicit error of the given scope.
func New(s Scope, code, format string, args ...any) *Error {
	return &Error{
		Scope:   s,
		Kind:    KindExplicit,
		Code:    code,
		Message: fmt.Sprintf(format, args...),
	}
}

// Explicit constructs an explicit error wrapping cause.
func Explicit(s Scope, code string, cause error) *Error {
	return &Error{Scope: s, Kind: KindExplicit, Code: code, Cause: cause}
}

// Escape converts an error into an escaping error of at least the
// given scope, per Principle 2: an escaping error must be used to
// convert a potential implicit error into an explicit error at a
// higher level.  If err is already a scoped error its scope may only
// widen; the original error is preserved as the cause.
func Escape(s Scope, code string, cause error) *Error {
	e := &Error{Scope: s, Kind: KindEscaping, Code: code, Cause: cause}
	if prev, ok := AsError(cause); ok {
		e.Scope = prev.Scope.Widen(s)
		if code == "" {
			e.Code = prev.Code
		}
		if e.Origin == "" {
			e.Origin = prev.Origin
		}
	}
	return e
}

// WithOrigin returns a shallow copy of e stamped with the named
// origin component, if it does not already carry one.
func (e *Error) WithOrigin(origin string) *Error {
	cp := *e
	if cp.Origin == "" {
		cp.Origin = origin
	}
	return &cp
}

// Widen returns a copy of e reinterpreted at a containing layer: the
// scope may only grow.  Widening an error to the same or narrower
// scope returns e unchanged.  This is the mechanism of Section 3.3 by
// which, for example, a lost connection of network scope becomes an
// error of process scope when interpreted in the context of RPC.
func (e *Error) Widen(s Scope, code string) *Error {
	if s <= e.Scope {
		return e
	}
	return &Error{
		Scope:   s,
		Kind:    e.Kind,
		Code:    code,
		Message: e.Message,
		Origin:  e.Origin,
		Cause:   e,
	}
}

// AsError extracts a *Error from err's chain.
func AsError(err error) (*Error, bool) {
	var se *Error
	if errors.As(err, &se) {
		return se, true
	}
	return nil, false
}

// ScopeOf returns the scope of err.  A plain error that carries no
// scope information is, by definition, an error whose meaning is
// inexpressible in the interfaces it crossed; it is treated as
// ScopeProcess, the scope of a broken mechanism of function call.
func ScopeOf(err error) Scope {
	if err == nil {
		return ScopeNone
	}
	if se, ok := AsError(err); ok {
		return se.Scope
	}
	return ScopeProcess
}

// KindOf returns the kind of err; plain errors are explicit.
func KindOf(err error) Kind {
	if se, ok := AsError(err); ok {
		return se.Kind
	}
	return KindExplicit
}

// Route returns the handler that must receive err, per Principle 3.
func Route(err error) Handler {
	return ScopeOf(err).Handler()
}
