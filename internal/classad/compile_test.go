package classad

import "testing"

// compatJobs and compatMachines span the expression shapes the
// compiler handles specially: constant conjuncts, my/target scopes,
// UNDEFINED and ERROR propagation, dynamic attributes, numeric
// cross-type and case-insensitive string comparison, and missing
// Requirements on either side.
var compatJobs = []string{
	`[ ImageSize = 128; Owner = "alice";
	   Requirements = target.HasJava && target.Memory >= my.ImageSize;
	   Rank = target.Memory ]`,
	`[ Owner = "mallory"; Requirements = target.OpSys == "LINUX"; Rank = target.Mips ]`,
	`[ Requirements = target.Memory > 64 || target.HasJava ]`,
	`[ Requirements = true ]`,
	`[ Owner = "bob" ]`,
	`[ Requirements = target.Missing ]`,
	`[ Requirements = target.Memory / 0 > 1 ]`,
	`[ ImageSize = 64; Requirements = my.ImageSize <= target.Memory;
	   Rank = target.Memory % 7 ]`,
	`[ Requirements = target.HasJava == true && target.OpSys == "linux";
	   Rank = 10.0 - target.LoadAvg ]`,
	`[ Requirements = target.Memory >= 100 && target.Memory <= 1000 ]`,
}

var compatMachines = []string{
	`[ Memory = 32; HasJava = false; OpSys = "linux"; Requirements = true ]`,
	`[ Memory = 256; HasJava = true; OpSys = "LINUX" ]`,
	`[ Memory = 2048; HasJava = true; OpSys = "OSX";
	   Requirements = target.ImageSize <= my.Memory ]`,
	`[ Memory = 1024.0; HasJava = true; OpSys = "LINUX"; LoadAvg = 0.1;
	   Requirements = LoadAvg < 0.3 ]`,
	`[ Memory = 512; HasJava = my.Memory > 0; OpSys = "LINUX" ]`,
	`[ Memory = 128; HasJava = true; OpSys = "LINUX";
	   Requirements = target.Owner != "mallory" ]`,
	`[ Memory = 700; Requirements = target.NoSuchAttr ]`,
}

// requirementsMetRef, matchRef and rankRef are the uncompiled
// reference evaluators: a direct AST walk with no memoization, the
// oracle the compiled handles are checked against.
func requirementsMetRef(a, b *Ad) bool {
	e, ok := a.Lookup(AttrRequirements)
	if !ok {
		return true
	}
	got, isBool := e.eval(env{self: a, target: b}).BoolValue()
	return isBool && got
}

func matchRef(a, b *Ad) bool {
	return requirementsMetRef(a, b) && requirementsMetRef(b, a)
}

func rankRef(a, b *Ad) float64 {
	e, ok := a.Lookup(AttrRank)
	if !ok {
		return 0
	}
	return rankValue(e.eval(env{self: a, target: b}))
}

// TestCompiledMatchesReference checks the fast path against the
// uncompiled AST walk for every (job, machine) pair in both
// directions: identical match verdicts and identical ranks.
func TestCompiledMatchesReference(t *testing.T) {
	for ji, jsrc := range compatJobs {
		for mi, msrc := range compatMachines {
			job := jobAd(t, jsrc)
			machine := jobAd(t, msrc)
			if got, want := Match(job, machine), matchRef(job, machine); got != want {
				t.Errorf("job %d vs machine %d: Match=%v matchRef=%v", ji, mi, got, want)
			}
			if got, want := Rank(job, machine), rankRef(job, machine); got != want {
				t.Errorf("job %d vs machine %d: Rank=%v rankRef=%v", ji, mi, got, want)
			}
			if got, want := Rank(machine, job), rankRef(machine, job); got != want {
				t.Errorf("machine %d vs job %d: Rank=%v rankRef=%v", mi, ji, got, want)
			}
		}
	}
}

// TestPrefilterSoundness verifies the one-sided contract of the
// constant pre-filter: it may only reject pairs that full evaluation
// would also reject.  Over the whole compatibility grid, a pair the
// filter drops must never be a pair Match accepts.
func TestPrefilterSoundness(t *testing.T) {
	for ji, jsrc := range compatJobs {
		job := jobAd(t, jsrc)
		pre := RequirementsPrefilter(job)
		for mi, msrc := range compatMachines {
			machine := jobAd(t, msrc)
			if !AdmitsAll(pre, machine.Table()) && Match(job, machine) {
				t.Errorf("job %d vs machine %d: pre-filter rejected a matching pair", ji, mi)
			}
		}
	}
}

// TestPrefilterExtractsConstantConjuncts checks that indexable
// constraints come out of a conjunctive Requirements and that
// disjunctions contribute nothing (they cannot be prejudged).
func TestPrefilterExtractsConstantConjuncts(t *testing.T) {
	job := jobAd(t, `[ Requirements = target.HasJava && target.Memory >= 64
		&& target.OpSys == "LINUX" && target.Arch != "SPARC" ]`)
	pre := RequirementsPrefilter(job)
	if len(pre) < 3 {
		t.Fatalf("want >= 3 constant conjuncts, got %d: %v", len(pre), pre)
	}
	keys := 0
	for _, c := range pre {
		if _, ok := c.IndexKey(); ok {
			keys++
		}
	}
	// HasJava (IsTrue) and OpSys == "LINUX" are equality-indexable;
	// Memory >= 64 and Arch != "SPARC" are filter-only.
	if keys != 2 {
		t.Errorf("want 2 indexable constraints, got %d: %v", keys, pre)
	}

	or := jobAd(t, `[ Requirements = target.HasJava || target.Memory >= 64 ]`)
	if pre := RequirementsPrefilter(or); len(pre) != 0 {
		t.Errorf("disjunction must not produce constraints, got %v", pre)
	}
}

// TestConstraintAdmits pins the filter's three bindings: a constant
// that satisfies the constraint admits, a constant that cannot satisfy
// it rejects, a dynamic binding always admits, and a missing attribute
// rejects (the conjunct would evaluate UNDEFINED, never true).
func TestConstraintAdmits(t *testing.T) {
	job := jobAd(t, `[ Requirements = target.Memory >= 64 ]`)
	pre := RequirementsPrefilter(job)
	if len(pre) != 1 {
		t.Fatalf("want one constraint, got %v", pre)
	}

	small := jobAd(t, `[ Memory = 32 ]`)
	big := jobAd(t, `[ Memory = 128 ]`)
	real := jobAd(t, `[ Memory = 64.0 ]`)
	dynamic := jobAd(t, `[ Memory = Base * 2; Base = 16 ]`)
	missing := jobAd(t, `[ Arch = "X86_64" ]`)

	for _, tc := range []struct {
		name string
		ad   *Ad
		want bool
	}{
		{"constant below", small, false},
		{"constant above", big, true},
		{"real boundary", real, true},
		{"dynamic binding", dynamic, true},
		{"missing attribute", missing, false},
	} {
		if got := AdmitsAll(pre, tc.ad.Table()); got != tc.want {
			t.Errorf("%s: AdmitsAll=%v want %v", tc.name, got, tc.want)
		}
	}
}

// TestValueIndexKey checks that the canonical key function mirrors
// ClassAd equality: integers and reals share keys, strings fold case,
// and structured values are not indexable.
func TestValueIndexKey(t *testing.T) {
	ik := func(v Value) string {
		t.Helper()
		k, ok := ValueIndexKey(v)
		if !ok {
			t.Fatalf("ValueIndexKey(%s) not indexable", v)
		}
		return k
	}
	if ik(Int(5)) != ik(Real(5.0)) {
		t.Error("5 and 5.0 must share an index key (numeric == crosses types)")
	}
	if ik(Int(5)) == ik(Int(6)) {
		t.Error("distinct integers must not collide")
	}
	if ik(Str("Linux")) != ik(Str("LINUX")) {
		t.Error("string keys must fold case (ClassAd == is case-insensitive)")
	}
	if ik(Str("true")) == ik(Bool(true)) {
		t.Error("string and boolean keys must not collide")
	}
	for _, v := range []Value{Undefined(), ErrorValue(), List(Int(1))} {
		if _, ok := ValueIndexKey(v); ok {
			t.Errorf("ValueIndexKey(%s) should not be indexable", v)
		}
	}
}

// TestMemoInvalidation verifies that the compiled-Requirements and
// attribute-table caches follow the ad's mutations: Set and Delete
// must be visible to the next Match and the next Table.
func TestMemoInvalidation(t *testing.T) {
	job := jobAd(t, `[ Requirements = target.Memory >= 64 ]`)
	machine := jobAd(t, `[ Memory = 128 ]`)
	if !Match(job, machine) {
		t.Fatal("baseline should match")
	}
	job.MustSetExpr("Requirements", "target.Memory >= 1024")
	if Match(job, machine) {
		t.Error("tightened Requirements still matching: stale compiled cache")
	}
	job.Delete("Requirements")
	if !Match(job, machine) {
		t.Error("deleted Requirements should accept everything")
	}

	if _, ok := machine.Table().Consts["memory"]; !ok {
		t.Fatal("Memory should be a constant binding")
	}
	machine.MustSetExpr("Memory", "Base + 1")
	if _, ok := machine.Table().Consts["memory"]; ok {
		t.Error("Memory became dynamic but Table still lists it constant")
	}
	if !machine.Table().Dynamic["memory"] {
		t.Error("Memory should be listed dynamic after the rewrite")
	}
}

// TestCopyCarriesCaches checks that Copy keeps matching behaviour and
// that mutating the copy does not disturb the original's caches.
func TestCopyCarriesCaches(t *testing.T) {
	job := jobAd(t, `[ Requirements = target.Memory >= 64 ]`)
	machine := jobAd(t, `[ Memory = 128 ]`)
	if !Match(job, machine) {
		t.Fatal("baseline should match")
	}
	cp := job.Copy()
	if !Match(cp, machine) {
		t.Error("copy should match like the original")
	}
	cp.MustSetExpr("Requirements", "false")
	if Match(cp, machine) {
		t.Error("mutated copy should not match")
	}
	if !Match(job, machine) {
		t.Error("original disturbed by mutating the copy")
	}
}

// TestCompiledEvalAllocFree pins the fast path's core property: once
// compiled, a Match of two plain ads performs no heap allocation.
func TestCompiledEvalAllocFree(t *testing.T) {
	job := jobAd(t, `[ ImageSize = 128;
		Requirements = target.HasJava && target.Memory >= my.ImageSize;
		Rank = target.Memory ]`)
	machine := jobAd(t, `[ Memory = 2048; HasJava = true;
		Requirements = target.ImageSize <= my.Memory ]`)
	job.Precompile()
	machine.Precompile()
	Match(job, machine) // warm the memoized handles
	allocs := testing.AllocsPerRun(200, func() {
		if !Match(job, machine) {
			t.Fatal("no match")
		}
	})
	if allocs > 0 {
		t.Errorf("Match allocated %.1f objects per run, want 0", allocs)
	}
}
