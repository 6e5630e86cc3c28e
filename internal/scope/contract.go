package scope

import "fmt"

// Contract is a concise, finite error interface (Principle 4).  It
// enumerates exactly the explicit error codes a routine may return and
// the scope each one carries.  Any other error presented at the
// interface boundary does not fit the interface and must therefore be
// converted into an escaping error (Principle 2) at the contract's
// escape scope, rather than smuggled through as a generic explicit
// error.
//
// The paper contrasts this with the generic java.io.IOException, whose
// open-ended extensibility "forces the participants to make guesses".
// A Contract makes a strong, limited statement: the zero-value
// Contract admits nothing, and admission must be declared per code.
type Contract struct {
	// Name identifies the interface, e.g. "FileWriter.write".
	Name string

	// EscapeScope is the scope assigned to errors that do not fit
	// the interface.  It should be the scope of the mechanism whose
	// failure the escape represents; callers that do not know better
	// use ScopeProcess.
	EscapeScope Scope

	// EscapeCode is the code stamped on escaping conversions,
	// e.g. "EnvironmentError".  Empty means keep the original code.
	EscapeCode string

	admits map[string]Scope
}

// NewContract creates an empty contract for the named interface.
func NewContract(name string, escapeScope Scope, escapeCode string) *Contract {
	return &Contract{
		Name:        name,
		EscapeScope: escapeScope,
		EscapeCode:  escapeCode,
		admits:      make(map[string]Scope),
	}
}

// Declare adds an explicit error code with its scope to the contract
// and returns the contract for chaining.  Declaring a code twice with
// different scopes panics: a contract is a statement of interface, and
// an ambiguous statement is a programming error.
func (c *Contract) Declare(code string, s Scope) *Contract {
	if c.admits == nil {
		c.admits = make(map[string]Scope)
	}
	if prev, ok := c.admits[code]; ok && prev != s {
		panic(fmt.Sprintf("scope: contract %s declares %s with conflicting scopes %s and %s",
			c.Name, code, prev, s))
	}
	c.admits[code] = s
	return c
}

// Admits reports whether the contract admits the explicit code, and
// the scope it assigns to it.
func (c *Contract) Admits(code string) (Scope, bool) {
	s, ok := c.admits[code]
	return s, ok
}

// Apply filters an error through the contract at an interface
// boundary.  A nil error passes through.  An error whose code the
// contract admits is returned as an explicit error carrying the
// contract's scope for that code.  Any other error — including an
// explicit error from a lower layer whose code the interface does not
// speak — is converted into an escaping error at the contract's escape
// scope, preserving the original as its cause.
//
// Apply never returns an implicit error (Principle 1), and never lets
// a foreign explicit error masquerade as one of the interface's own
// (Principle 4).
func (c *Contract) Apply(err error) error {
	if err == nil {
		return nil
	}
	se, ok := AsError(err)
	if ok && se.Kind == KindExplicit {
		if s, admitted := c.Admits(se.Code); admitted {
			if se.Scope == s {
				return se
			}
			cp := *se
			cp.Scope = s
			cp.Cause = se
			return &cp
		}
	}
	// Either a plain error, an escaping error still in flight, or an
	// explicit error foreign to this interface: escape it.
	esc := Escape(c.EscapeScope, c.EscapeCode, err)
	if c.EscapeCode == "" {
		if ok {
			esc.Code = se.Code
		} else {
			esc.Code = "EscapingError"
		}
	}
	return esc
}

// Violations inspects an error against the contract without converting
// it, returning a description of how the error would violate the
// interface if passed through untouched, or "" if it conforms.  Kept,
// with WellFormed, for the contracts gate, which checks every error
// that crosses an interface boundary.
func (c *Contract) Violations(err error) string {
	if err == nil {
		return ""
	}
	se, ok := AsError(err)
	if !ok {
		return fmt.Sprintf("unscoped error %q cannot conform to contract %s", err, c.Name)
	}
	switch se.Kind {
	case KindImplicit:
		return fmt.Sprintf("implicit error %s presented at interface %s (violates Principle 1)", se.Code, c.Name)
	case KindEscaping:
		return "" // escaping errors are allowed to pass any interface
	}
	if _, admitted := c.Admits(se.Code); !admitted {
		return fmt.Sprintf("explicit error %s not declared by interface %s (violates Principle 4)", se.Code, c.Name)
	}
	return ""
}
