package scope

import "errors"

// Hop is one layer an error passed through on its way up the system.
type Hop struct {
	Scope  Scope
	Kind   Kind
	Code   string
	Origin string
}

// Path returns the propagation history of err, outermost hop first:
// every scoped error in its cause chain.  The path makes the widening
// of Section 3.3 visible — a well-formed path never narrows in scope
// from the inside out.
func Path(err error) []Hop {
	var hops []Hop
	for err != nil {
		if se, ok := err.(*Error); ok {
			hops = append(hops, Hop{
				Scope:  se.Scope,
				Kind:   se.Kind,
				Code:   se.Code,
				Origin: se.Origin,
			})
		}
		err = errors.Unwrap(err)
	}
	return hops
}

// WellFormed reports whether the propagation history only widens:
// every outer hop's scope contains the scope of the hop beneath it
// (Principle 3's reinterpretation discipline).  Errors with no scoped
// hops are vacuously well-formed.
func WellFormed(err error) bool {
	hops := Path(err)
	for i := 1; i < len(hops); i++ {
		// hops[i-1] is outer, hops[i] is inner.
		if !hops[i-1].Scope.Contains(hops[i].Scope) {
			return false
		}
	}
	return true
}
