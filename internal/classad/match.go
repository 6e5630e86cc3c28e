package classad

// AttrRequirements and AttrRank are the attribute names the
// matchmaker consults, as in Condor.
const (
	AttrRequirements = "Requirements"
	AttrRank         = "Rank"

	attrRequirementsLower = "requirements"
	attrRankLower         = "rank"
)

// RequirementsMet evaluates a's Requirements with a as self and b as
// target.  Following Condor's matchmaker, only a definite true is a
// pass: UNDEFINED or ERROR in a requirements expression must not
// silently admit a match (Principle 1 applied to matchmaking).
// An ad with no Requirements attribute accepts everything.
//
// The expression is compiled and memoized on the ad the first time it
// is consulted; repeated matches stop re-walking the tree.
func RequirementsMet(a, b *Ad) bool {
	c, ok := a.requirementsCompiled()
	if !ok {
		return true
	}
	return c.EvalBool(a, b)
}

// Match reports whether the two ads match: each ad's Requirements
// must evaluate to true in the context of the other.  Match is
// symmetric.
func Match(a, b *Ad) bool {
	return RequirementsMet(a, b) && RequirementsMet(b, a)
}

// rankValue converts a Rank evaluation result to a float: missing,
// UNDEFINED, ERROR, or non-numeric Rank is 0.0, as in Condor — rank
// orders candidates but never vetoes them.  Boolean ranks map to
// 1.0/0.0.
func rankValue(v Value) float64 {
	if f, isNum := v.RealValue(); isNum {
		return f
	}
	if bv, isBool := v.BoolValue(); isBool && bv {
		return 1
	}
	return 0
}

// Rank evaluates a's Rank expression against candidate b, through the
// memoized compiled handle.
func Rank(a, b *Ad) float64 {
	c, ok := a.rankCompiled()
	if !ok {
		return 0
	}
	return rankValue(c.Eval(a, b))
}

// RequirementsPrefilter returns the constant conjuncts of the ad's
// Requirements, or nil when there are none.  Callers may test a
// candidate's Table against them to skip full evaluation of pairs the
// full Match would reject anyway.
func RequirementsPrefilter(a *Ad) []Constraint {
	c, ok := a.requirementsCompiled()
	if !ok {
		return nil
	}
	return c.Prefilter()
}
