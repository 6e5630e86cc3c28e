package classad

// The closure compiler below evaluated Requirements and Rank in the
// matchmaker until the AST walk became the package's one evaluator.
// It is kept verbatim, but for the scope constants and the pre-filter
// conjuncts it once carried, as the walk's oracle: FuzzEval and
// TestWalkMatchesCompilerOracle require the two to return equal
// values.
// Its closures fall back to the walk for a non-literal attribute's
// expression and for select, call and nested-ad nodes, exactly as
// they did when they shipped, so the oracle covers the operators,
// scopes, depth bound and three-valued logic the compiler lowered.
//
// One divergence is known (TestFoldedConstantIgnoredDepthBound): the
// compiler folded a constant subtree by walking it from depth 0, so in
// an expression nested deeper than maxEvalDepth a folded operand
// escaped the bound the walk enforces.  FuzzEval skips such
// expressions.

// cnode is one compiled expression node.  Passing self/target/depth
// as plain arguments keeps evaluation off the heap entirely.
type cnode func(self, target *Ad, depth int) Value

// Compiled is an expression lowered for repeated evaluation.
type Compiled struct {
	src Expr
	fn  cnode
}

// Compile lowers a parsed expression.  Constant subtrees are folded
// at compile time; attribute references carry interned lower-case
// names resolved through the per-ad lookup table.
func Compile(e Expr) *Compiled {
	return &Compiled{src: e, fn: compileNode(e)}
}

// Expr returns the expression the compilation came from.
func (c *Compiled) Expr() Expr { return c.src }

// Eval evaluates the compiled expression with self and target ads.
func (c *Compiled) Eval(self, target *Ad) Value { return c.fn(self, target, 0) }

// EvalBool evaluates and reports whether the result is a definite
// true — the matchmaker's acceptance test (UNDEFINED and ERROR fail).
func (c *Compiled) EvalBool(self, target *Ad) bool {
	b, ok := c.fn(self, target, 0).BoolValue()
	return ok && b
}

// isConstExpr reports whether e evaluates independently of any ad:
// no attribute references or selections anywhere beneath it.
// Builtins are pure, so constant-argument calls qualify.
func isConstExpr(e Expr) bool {
	switch n := e.(type) {
	case *literalExpr:
		return true
	case *unaryExpr:
		return isConstExpr(n.x)
	case *binaryExpr:
		return isConstExpr(n.l) && isConstExpr(n.r)
	case *condExpr:
		return isConstExpr(n.cond) && isConstExpr(n.then) && isConstExpr(n.els)
	case *listExpr:
		for _, el := range n.elems {
			if !isConstExpr(el) {
				return false
			}
		}
		return true
	case *callExpr:
		for _, a := range n.args {
			if !isConstExpr(a) {
				return false
			}
		}
		return true
	}
	return false
}

// compileNode lowers one AST node into a closure.
func compileNode(e Expr) cnode {
	if isConstExpr(e) {
		v := e.eval(env{})
		return func(*Ad, *Ad, int) Value { return v }
	}
	switch n := e.(type) {
	case *literalExpr:
		v := n.v
		return func(*Ad, *Ad, int) Value { return v }
	case *attrRefExpr:
		name := n.lower
		switch n.scope {
		case scopeMy:
			return func(self, target *Ad, depth int) Value {
				if depth+1 > maxEvalDepth {
					return ErrorValue()
				}
				return lookupIn(self, name, depth+1, target)
			}
		case scopeTarget:
			return func(self, target *Ad, depth int) Value {
				if depth+1 > maxEvalDepth {
					return ErrorValue()
				}
				return lookupIn(target, name, depth+1, self)
			}
		default:
			return func(self, target *Ad, depth int) Value {
				if depth+1 > maxEvalDepth {
					return ErrorValue()
				}
				if self != nil {
					if expr, ok := self.lookupLower(name); ok {
						if lit, isLit := expr.(*literalExpr); isLit {
							return lit.v
						}
						return expr.eval(env{self: self, target: target, depth: depth + 1})
					}
				}
				if target != nil {
					if expr, ok := target.lookupLower(name); ok {
						if lit, isLit := expr.(*literalExpr); isLit {
							return lit.v
						}
						// Inside the target ad, the roles reverse.
						return expr.eval(env{self: target, target: self, depth: depth + 1})
					}
				}
				return Undefined()
			}
		}
	case *unaryExpr:
		xc := compileNode(n.x)
		op := n.op
		return func(self, target *Ad, depth int) Value {
			if depth+1 > maxEvalDepth {
				return ErrorValue()
			}
			return applyUnary(op, xc(self, target, depth+1))
		}
	case *condExpr:
		cc := compileNode(n.cond)
		tc := compileNode(n.then)
		ec := compileNode(n.els)
		return func(self, target *Ad, depth int) Value {
			if depth+1 > maxEvalDepth {
				return ErrorValue()
			}
			c := cc(self, target, depth+1)
			switch c.Type() {
			case BooleanType:
				b, _ := c.BoolValue()
				if b {
					return tc(self, target, depth+1)
				}
				return ec(self, target, depth+1)
			case UndefinedType, ErrorType:
				return c
			default:
				return ErrorValue()
			}
		}
	case *listExpr:
		elems := make([]cnode, len(n.elems))
		for i, el := range n.elems {
			elems[i] = compileNode(el)
		}
		return func(self, target *Ad, depth int) Value {
			if depth+1 > maxEvalDepth {
				return ErrorValue()
			}
			vs := make([]Value, len(elems))
			for i, ec := range elems {
				vs[i] = ec(self, target, depth+1)
			}
			return List(vs...)
		}
	case *binaryExpr:
		lc := compileNode(n.l)
		rc := compileNode(n.r)
		switch n.op {
		case tokAnd:
			return compileAnd(lc, rc)
		case tokOr:
			return compileOr(lc, rc)
		case tokMetaEQ:
			return func(self, target *Ad, depth int) Value {
				if depth+1 > maxEvalDepth {
					return ErrorValue()
				}
				return Bool(lc(self, target, depth+1).Equal(rc(self, target, depth+1)))
			}
		case tokMetaNE:
			return func(self, target *Ad, depth int) Value {
				if depth+1 > maxEvalDepth {
					return ErrorValue()
				}
				return Bool(!lc(self, target, depth+1).Equal(rc(self, target, depth+1)))
			}
		}
		op := n.op
		return func(self, target *Ad, depth int) Value {
			if depth+1 > maxEvalDepth {
				return ErrorValue()
			}
			l := lc(self, target, depth+1)
			r := rc(self, target, depth+1)
			// ERROR dominates UNDEFINED; both propagate.
			if l.IsError() || r.IsError() {
				return ErrorValue()
			}
			if l.IsUndefined() || r.IsUndefined() {
				return Undefined()
			}
			switch op {
			case tokPlus, tokMinus, tokStar, tokSlash, tokPct:
				return evalArith(op, l, r)
			case tokEQ, tokNE, tokLT, tokLE, tokGT, tokGE:
				return evalCompare(op, l, r)
			}
			return ErrorValue()
		}
	default:
		// selectExpr, callExpr, adExpr: rare outside configuration;
		// evaluate through the AST, which performs its own depth check.
		return func(self, target *Ad, depth int) Value {
			return e.eval(env{self: self, target: target, depth: depth})
		}
	}
}

// compileAnd mirrors evalAnd's three-valued conjunction over compiled
// operands: a definite false wins over UNDEFINED/ERROR.
func compileAnd(lc, rc cnode) cnode {
	return func(self, target *Ad, depth int) Value {
		if depth+1 > maxEvalDepth {
			return ErrorValue()
		}
		l := lc(self, target, depth+1)
		if b, ok := l.BoolValue(); ok && !b {
			return Bool(false)
		}
		r := rc(self, target, depth+1)
		if b, ok := r.BoolValue(); ok && !b {
			return Bool(false)
		}
		if l.IsError() || r.IsError() {
			return ErrorValue()
		}
		if l.IsUndefined() || r.IsUndefined() {
			return Undefined()
		}
		lb, lok := l.BoolValue()
		rb, rok := r.BoolValue()
		if !lok || !rok {
			return ErrorValue()
		}
		return Bool(lb && rb)
	}
}

// compileOr mirrors evalOr: a definite true wins.
func compileOr(lc, rc cnode) cnode {
	return func(self, target *Ad, depth int) Value {
		if depth+1 > maxEvalDepth {
			return ErrorValue()
		}
		l := lc(self, target, depth+1)
		if b, ok := l.BoolValue(); ok && b {
			return Bool(true)
		}
		r := rc(self, target, depth+1)
		if b, ok := r.BoolValue(); ok && b {
			return Bool(true)
		}
		if l.IsError() || r.IsError() {
			return ErrorValue()
		}
		if l.IsUndefined() || r.IsUndefined() {
			return Undefined()
		}
		lb, lok := l.BoolValue()
		rb, rok := r.BoolValue()
		if !lok || !rok {
			return ErrorValue()
		}
		return Bool(lb || rb)
	}
}

// requirementsMetCompiled, matchCompiled and rankCompiled are
// RequirementsMet, Match and Rank as they were over the compiler.
func requirementsMetCompiled(a, b *Ad) bool {
	e, ok := a.Lookup(AttrRequirements)
	if !ok {
		return true
	}
	return Compile(e).EvalBool(a, b)
}

func matchCompiled(a, b *Ad) bool {
	return requirementsMetCompiled(a, b) && requirementsMetCompiled(b, a)
}

func rankCompiled(a, b *Ad) float64 {
	e, ok := a.Lookup(AttrRank)
	if !ok {
		return 0
	}
	return rankValue(Compile(e).Eval(a, b))
}
