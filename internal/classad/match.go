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
func RequirementsMet(a, b *Ad) bool {
	e, ok := a.lookupLower(attrRequirementsLower)
	if !ok {
		return true
	}
	got, isBool := e.eval(env{self: a, target: b}).BoolValue()
	return isBool && got
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

// Rank evaluates a's Rank expression against candidate b.
func Rank(a, b *Ad) float64 {
	e, ok := a.lookupLower(attrRankLower)
	if !ok {
		return 0
	}
	return rankValue(e.eval(env{self: a, target: b}))
}
