package classad

// This file implements the matchmaker's static pre-filter: the
// constant conjuncts of a Requirements expression, and the per-ad
// snapshot of literal attributes they are tested against.  The
// pre-filter is one-sided by construction — it may only reject pairs
// that full evaluation would also reject (see the soundness note on
// Constraint.Admits).

// Constraint is one constant conjunct of a Requirements expression
// that mentions only a target attribute and a literal: `target.X`
// alone, or `target.X OP literal` for a comparison operator.  The
// matchmaker uses constraints to skip full evaluation of obviously
// incompatible pairs.
type Constraint struct {
	// Attr is the lower-cased target attribute name.
	Attr string
	// Val is the literal operand (unset when IsTrue).
	Val Value
	// IsTrue marks a bare `target.X` conjunct, which requires the
	// attribute to be the boolean constant true.
	IsTrue bool

	tok tokenKind // comparison operator when !IsTrue
}

// Op renders the constraint operator for diagnostics.
func (c Constraint) Op() string {
	if c.IsTrue {
		return "istrue"
	}
	return binaryOpText[c.tok]
}

// String renders the constraint.
func (c Constraint) String() string {
	if c.IsTrue {
		return c.Attr
	}
	return c.Attr + " " + c.Op() + " " + c.Val.String()
}

// Admits reports whether the target snapshot could satisfy the
// constraint.
//
// Soundness: Admits returns false only when the conjunct it came from
// cannot evaluate to true against this target — the attribute is
// absent (the conjunct is UNDEFINED), or it is a literal for which
// the comparison is definitely false or a type error.  In every such
// case the enclosing conjunction cannot be definitely true, so
// RequirementsMet would reject the pair too.  A defined but
// non-constant attribute always admits: the pre-filter never guesses
// at dynamic expressions.
func (c Constraint) Admits(t *AttrTable) bool {
	if t == nil {
		return true
	}
	v, isConst := t.Consts[c.Attr]
	if !isConst {
		return t.Dynamic[c.Attr]
	}
	if c.IsTrue {
		b, ok := v.BoolValue()
		return ok && b
	}
	if v.IsUndefined() || v.IsError() || c.Val.IsUndefined() || c.Val.IsError() {
		// The conjunct propagates UNDEFINED/ERROR: never true.
		return false
	}
	b, ok := evalCompare(c.tok, v, c.Val).BoolValue()
	return ok && b
}

// AdmitsAll reports whether every constraint admits the target
// snapshot.
func AdmitsAll(pre []Constraint, t *AttrTable) bool {
	for _, c := range pre {
		if !c.Admits(t) {
			return false
		}
	}
	return true
}

// extractConstraints walks the top-level conjunction of e collecting
// constant target conjuncts.
func extractConstraints(e Expr) []Constraint {
	var out []Constraint
	collectConstraints(e, &out)
	return out
}

func collectConstraints(e Expr, out *[]Constraint) {
	switch n := e.(type) {
	case *attrRefExpr:
		if n.scope == scopeTarget {
			*out = append(*out, Constraint{Attr: n.lower, IsTrue: true})
		}
	case *binaryExpr:
		switch n.op {
		case tokAnd:
			collectConstraints(n.l, out)
			collectConstraints(n.r, out)
		case tokEQ, tokNE, tokLT, tokLE, tokGT, tokGE:
			if ref, ok := targetRef(n.l); ok {
				if lit, ok := n.r.(*literalExpr); ok {
					*out = append(*out, Constraint{Attr: ref.lower, tok: n.op, Val: lit.v})
				}
			} else if ref, ok := targetRef(n.r); ok {
				if lit, ok := n.l.(*literalExpr); ok {
					*out = append(*out, Constraint{Attr: ref.lower, tok: flipCompare(n.op), Val: lit.v})
				}
			}
		}
	}
}

// targetRef matches a `target.X` attribute reference.
func targetRef(e Expr) (*attrRefExpr, bool) {
	ref, ok := e.(*attrRefExpr)
	if !ok || ref.scope != scopeTarget {
		return nil, false
	}
	return ref, true
}

// flipCompare mirrors a comparison when its operands swap sides:
// `lit OP target.X` becomes `target.X flip(OP) lit`.
func flipCompare(op tokenKind) tokenKind {
	switch op {
	case tokLT:
		return tokGT
	case tokLE:
		return tokGE
	case tokGT:
		return tokLT
	case tokGE:
		return tokLE
	}
	return op // == and != are symmetric
}

// --- per-ad attribute table ---

// AttrTable is an ad's pre-filter snapshot: the literal attribute
// values plus the set of defined-but-dynamic attribute names, all
// keyed by lower-cased name.
type AttrTable struct {
	Consts  map[string]Value
	Dynamic map[string]bool
}

// Table returns the memoized attribute snapshot of the ad, rebuilt
// lazily after mutations.  A nil ad has a nil table, which every
// constraint admits.
func (a *Ad) Table() *AttrTable {
	if a == nil {
		return nil
	}
	if a.tblVer == a.version+1 {
		return a.tbl
	}
	t := &AttrTable{
		Consts:  make(map[string]Value, len(a.exprs)),
		Dynamic: make(map[string]bool),
	}
	for i, lower := range a.lower {
		if lit, ok := a.exprs[i].(*literalExpr); ok {
			t.Consts[lower] = lit.v
		} else {
			t.Dynamic[lower] = true
		}
	}
	a.tbl = t
	a.tblVer = a.version + 1
	return t
}
