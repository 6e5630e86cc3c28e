package classad

import (
	"fmt"
	"slices"
	"strings"
)

// Ad is a ClassAd: an ordered set of named attribute expressions.
// Attribute names are case-insensitive, as in Condor, but the ad
// remembers the spelling used at first insertion.  The zero value is
// not usable; call NewAd.
//
// An Ad is not safe for concurrent mutation; daemons own their ads
// and exchange copies.  The match fast path (Requirements/Rank
// compilation, the constant-attribute table) is cached lazily on
// first use and invalidated by any Set or Delete; call Precompile to
// build the caches eagerly, which also makes subsequent concurrent
// read-only evaluation safe.
type Ad struct {
	names []string // insertion order, original spelling
	lower []string // parallel to names, lower-cased
	exprs []Expr   // parallel to names
	// index maps lower-case name -> slice position, but is only
	// materialized once the ad outgrows adIndexSmall attributes: the
	// daemons build thousands of short-lived ~10-attribute ads per
	// run, and for those a linear scan over interned strings beats a
	// map's hashing and its construction cost.
	index map[string]int

	// version counts mutations; the memo caches below carry the
	// version they were built at and are ignored once stale.
	version uint64
	reqVer  uint64
	req     *Compiled // compiled Requirements; nil = attribute absent
	rankVer uint64
	rank    *Compiled // compiled Rank; nil = attribute absent
	tblVer  uint64
	tbl     *AttrTable
	strVer  uint64
	str     string // memoized String rendering
}

// adIndexSmall is the attribute count up to which an ad resolves
// names by linear scan instead of a map.
const adIndexSmall = 16

// NewAd creates an empty ClassAd.  The attribute slices are reserved
// for a typical daemon ad up front, so building one pays three
// allocations instead of a growth ladder per slice.
func NewAd() *Ad {
	return &Ad{
		names: make([]string, 0, 8),
		lower: make([]string, 0, 8),
		exprs: make([]Expr, 0, 8),
	}
}

// pos resolves an already lower-cased name to its slice position.
func (a *Ad) pos(lower string) (int, bool) {
	if a.index != nil {
		i, ok := a.index[lower]
		return i, ok
	}
	for i, l := range a.lower {
		if l == lower {
			return i, true
		}
	}
	return 0, false
}

// Len returns the number of attributes.
func (a *Ad) Len() int { return len(a.names) }

// Names returns the attribute names in insertion order.
func (a *Ad) Names() []string {
	out := make([]string, len(a.names))
	copy(out, a.names)
	return out
}

// Set binds name to the expression, replacing any previous binding
// but keeping the original position and spelling.
func (a *Ad) Set(name string, e Expr) {
	a.version++
	key := strings.ToLower(name)
	if i, ok := a.pos(key); ok {
		a.exprs[i] = e
		return
	}
	if a.index != nil {
		a.index[key] = len(a.names)
	} else if len(a.names) >= adIndexSmall {
		a.index = make(map[string]int, len(a.names)+1)
		for i, l := range a.lower {
			a.index[l] = i
		}
		a.index[key] = len(a.names)
	}
	a.names = append(a.names, name)
	a.lower = append(a.lower, key)
	a.exprs = append(a.exprs, e)
}

// SetValue binds name to a constant value.
func (a *Ad) SetValue(name string, v Value) { a.Set(name, Lit(v)) }

// SetInt binds name to an integer constant.
func (a *Ad) SetInt(name string, i int64) { a.SetValue(name, Int(i)) }

// SetReal binds name to a real constant.
func (a *Ad) SetReal(name string, r float64) { a.SetValue(name, Real(r)) }

// SetBool binds name to a boolean constant.
func (a *Ad) SetBool(name string, b bool) { a.SetValue(name, Bool(b)) }

// SetString binds name to a string constant.
func (a *Ad) SetString(name, s string) { a.SetValue(name, Str(s)) }

// SetExprString parses src as an expression and binds it to name.
func (a *Ad) SetExprString(name, src string) error {
	e, err := ParseExpr(src)
	if err != nil {
		return fmt.Errorf("classad: attribute %s: %w", name, err)
	}
	a.Set(name, e)
	return nil
}

// MustSetExpr is SetExprString that panics on a parse error; intended
// for statically known expressions in tests and configuration.
func (a *Ad) MustSetExpr(name, src string) {
	if err := a.SetExprString(name, src); err != nil {
		panic(err)
	}
}

// Lookup returns the expression bound to name (case-insensitive).
func (a *Ad) Lookup(name string) (Expr, bool) {
	if a == nil {
		return nil, false
	}
	i, ok := a.pos(strings.ToLower(name))
	if !ok {
		return nil, false
	}
	return a.exprs[i], true
}

// lookupLower is Lookup for an already lower-cased name; the
// evaluator and compiled expressions intern lowered names so the hot
// path never folds case.
func (a *Ad) lookupLower(lower string) (Expr, bool) {
	if a == nil {
		return nil, false
	}
	i, ok := a.pos(lower)
	if !ok {
		return nil, false
	}
	return a.exprs[i], true
}

// Delete removes the binding for name, if present.
func (a *Ad) Delete(name string) {
	a.version++
	key := strings.ToLower(name)
	i, ok := a.pos(key)
	if !ok {
		return
	}
	a.names = append(a.names[:i], a.names[i+1:]...)
	a.lower = append(a.lower[:i], a.lower[i+1:]...)
	a.exprs = append(a.exprs[:i], a.exprs[i+1:]...)
	if a.index != nil {
		delete(a.index, key)
		for k, j := range a.index {
			if j > i {
				a.index[k] = j - 1
			}
		}
	}
}

// Copy returns a deep copy of the ad structure.  Expressions are
// immutable and therefore shared, and so are the compiled-match
// caches, which close over expressions only.
func (a *Ad) Copy() *Ad {
	cp := &Ad{
		names: make([]string, len(a.names)),
		lower: make([]string, len(a.lower)),
		exprs: make([]Expr, len(a.exprs)),

		version: a.version,
		reqVer:  a.reqVer,
		req:     a.req,
		rankVer: a.rankVer,
		rank:    a.rank,
		tblVer:  a.tblVer,
		tbl:     a.tbl,
		strVer:  a.strVer,
		str:     a.str,
	}
	copy(cp.names, a.names)
	copy(cp.lower, a.lower)
	copy(cp.exprs, a.exprs)
	if a.index != nil {
		cp.index = make(map[string]int, len(a.index))
		for k, v := range a.index {
			cp.index[k] = v
		}
	}
	return cp
}

// Merge sets every attribute of other into a, overwriting duplicates.
func (a *Ad) Merge(other *Ad) {
	if other == nil {
		return
	}
	for i, name := range other.names {
		a.Set(name, other.exprs[i])
	}
}

// EvalAttr evaluates the named attribute with a as self and target as
// the match candidate.  A missing attribute is UNDEFINED.
func (a *Ad) EvalAttr(name string, target *Ad) Value {
	e, ok := a.Lookup(name)
	if !ok {
		return Undefined()
	}
	return e.eval(env{self: a, target: target})
}

// EvalString is a convenience that evaluates src in the context of a
// (self) and target.
func (a *Ad) EvalString(src string, target *Ad) (Value, error) {
	e, err := ParseExpr(src)
	if err != nil {
		return ErrorValue(), err
	}
	return e.eval(env{self: a, target: target}), nil
}

// Precompile eagerly builds the match fast-path caches: the compiled
// Requirements and Rank handles and the constant-attribute table.
// After Precompile, Match/Rank over the ad are read-only
// and safe for concurrent use until the next mutation.
func (a *Ad) Precompile() {
	a.requirementsCompiled()
	a.rankCompiled()
	a.Table()
	_ = a.String()
}

// requirementsCompiled returns the memoized compiled Requirements
// expression.  The second result is false when the ad has no
// Requirements attribute.
func (a *Ad) requirementsCompiled() (*Compiled, bool) {
	if a == nil {
		return nil, false
	}
	if a.reqVer != a.version+1 {
		if e, ok := a.lookupLower(attrRequirementsLower); ok {
			a.req = Compile(e)
		} else {
			a.req = nil
		}
		a.reqVer = a.version + 1
	}
	return a.req, a.req != nil
}

// rankCompiled returns the memoized compiled Rank expression.
func (a *Ad) rankCompiled() (*Compiled, bool) {
	if a == nil {
		return nil, false
	}
	if a.rankVer != a.version+1 {
		if e, ok := a.lookupLower(attrRankLower); ok {
			a.rank = Compile(e)
		} else {
			a.rank = nil
		}
		a.rankVer = a.version + 1
	}
	return a.rank, a.rank != nil
}

// String renders the ad in bracketed ClassAd syntax.  The rendering
// is memoized per version — journaling and match clustering both read
// it on their hot paths — and Precompile fills it eagerly, so shared
// precompiled ads stay read-only under concurrent String calls.
func (a *Ad) String() string {
	if a.strVer == a.version+1 {
		return a.str
	}
	var sb strings.Builder
	sb.Grow(16 + 24*len(a.names))
	sb.WriteString("[ ")
	for i, name := range a.names {
		if i > 0 {
			sb.WriteString("; ")
		}
		sb.WriteString(name)
		sb.WriteString(" = ")
		sb.WriteString(a.exprs[i].String())
	}
	sb.WriteString(" ]")
	a.str = sb.String()
	a.strVer = a.version + 1
	return a.str
}

// equalTo compares two ads structurally: same attribute set (by
// case-insensitive name) with strictly equal constant renderings.
func (a *Ad) equalTo(b *Ad) bool {
	if a == nil || b == nil {
		return a == b
	}
	if len(a.names) != len(b.names) {
		return false
	}
	akeys := make([]string, len(a.lower))
	copy(akeys, a.lower)
	slices.Sort(akeys)
	for _, k := range akeys {
		ai, _ := a.pos(k)
		bi, ok := b.pos(k)
		if !ok {
			return false
		}
		if a.exprs[ai].String() != b.exprs[bi].String() {
			return false
		}
	}
	return true
}
