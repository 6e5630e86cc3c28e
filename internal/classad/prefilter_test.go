package classad

import (
	"reflect"
	"sync"
	"testing"
)

// compatJobs and compatMachines span the expression shapes the
// closure compiler handled specially and the pre-filter extracts:
// constant conjuncts, my/target scopes, UNDEFINED and ERROR
// propagation, dynamic attributes, numeric cross-type and
// case-insensitive string comparison, and missing Requirements on
// either side.
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

// TestWalkMatchesCompilerOracle checks the AST walk against the closure
// compiler it replaced (eval_ref_test.go) for every (job, machine)
// pair in both directions: identical match verdicts and identical
// ranks.
func TestWalkMatchesCompilerOracle(t *testing.T) {
	for ji, jsrc := range compatJobs {
		for mi, msrc := range compatMachines {
			job := jobAd(t, jsrc)
			machine := jobAd(t, msrc)
			if got, want := Match(job, machine), matchCompiled(job, machine); got != want {
				t.Errorf("job %d vs machine %d: Match=%v matchCompiled=%v", ji, mi, got, want)
			}
			if got, want := Rank(job, machine), rankCompiled(job, machine); got != want {
				t.Errorf("job %d vs machine %d: Rank=%v rankCompiled=%v", ji, mi, got, want)
			}
			if got, want := Rank(machine, job), rankCompiled(machine, job); got != want {
				t.Errorf("machine %d vs job %d: Rank=%v rankCompiled=%v", mi, ji, got, want)
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

// TestPrefilterExtractsConstantConjuncts checks that the constant
// conjuncts come out of a conjunctive Requirements and that
// disjunctions contribute nothing (they cannot be prejudged).
func TestPrefilterExtractsConstantConjuncts(t *testing.T) {
	job := jobAd(t, `[ Requirements = target.HasJava && target.Memory >= 64
		&& target.OpSys == "LINUX" && target.Arch != "SPARC" ]`)
	pre := RequirementsPrefilter(job)
	want := []string{"hasjava", "memory >= 64", `opsys == "LINUX"`, `arch != "SPARC"`}
	if len(pre) != len(want) {
		t.Fatalf("want %d constant conjuncts, got %d: %v", len(want), len(pre), pre)
	}
	for i, c := range pre {
		if c.String() != want[i] {
			t.Errorf("conjunct %d = %s, want %s", i, c, want[i])
		}
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

// TestMemoInvalidation verifies that Match and the pre-filter and
// attribute-table caches follow the ad's mutations: Set and Delete
// must be visible to the next Match, pre-filter and Table.
func TestMemoInvalidation(t *testing.T) {
	job := jobAd(t, `[ Requirements = target.Memory >= 64 ]`)
	machine := jobAd(t, `[ Memory = 128 ]`)
	if !Match(job, machine) {
		t.Fatal("baseline should match")
	}
	if pre := RequirementsPrefilter(job); len(pre) != 1 || !AdmitsAll(pre, machine.Table()) {
		t.Fatalf("baseline pre-filter = %v, want one admitting constraint", pre)
	}
	job.MustSetExpr("Requirements", "target.Memory >= 1024")
	if Match(job, machine) {
		t.Error("tightened Requirements still matching")
	}
	if AdmitsAll(RequirementsPrefilter(job), machine.Table()) {
		t.Error("tightened Requirements still admitted: stale pre-filter")
	}
	job.Delete("Requirements")
	if !Match(job, machine) {
		t.Error("deleted Requirements should accept everything")
	}
	if pre := RequirementsPrefilter(job); pre != nil {
		t.Errorf("deleted Requirements left pre-filter %v", pre)
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

// TestMatchAllocFree pins the evaluator's core property: Match and
// Rank of two plain ads perform no heap allocation, including through
// an unqualified reference that resolves to a non-literal attribute.
func TestMatchAllocFree(t *testing.T) {
	job := jobAd(t, `[ ImageSize = 128; MinMemory = my.ImageSize * 2;
		Requirements = target.HasJava && target.Memory >= MinMemory;
		Rank = target.Memory - ImageSize ]`)
	machine := jobAd(t, `[ Memory = 2048; HasJava = true;
		Requirements = target.ImageSize <= my.Memory ]`)
	for name, run := range map[string]func(){
		"Match": func() {
			if !Match(job, machine) {
				t.Fatal("no match")
			}
		},
		"Rank": func() {
			if Rank(job, machine) != 1920 {
				t.Fatal("wrong rank")
			}
		},
	} {
		if allocs := testing.AllocsPerRun(200, run); allocs > 0 {
			t.Errorf("%s allocated %.1f objects per run, want 0", name, allocs)
		}
	}
}

// TestPrecompiledAdsAreReadOnly holds Precompile's contract: once an
// ad is precompiled, every read — Match, Rank, the pre-filter, the
// attribute table and the rendering — may run from many goroutines at
// once, over the ad and over copies that share its caches.  `make race`
// turns any write into a failure.
func TestPrecompiledAdsAreReadOnly(t *testing.T) {
	var shared, fresh []*Ad
	for _, src := range append(append([]string{}, compatJobs...), compatMachines...) {
		ad := jobAd(t, src)
		ad.Precompile()
		shared = append(shared, ad, ad.Copy())
		fresh = append(fresh, jobAd(t, src), jobAd(t, src))
	}
	type result struct {
		match bool
		rank  float64
		pre   []Constraint
		tbl   *AttrTable
		str   string
	}
	read := func(ads []*Ad) []result {
		var out []result
		for _, a := range ads {
			for _, b := range ads {
				out = append(out, result{Match(a, b), Rank(a, b), RequirementsPrefilter(a), a.Table(), a.String()})
			}
		}
		return out
	}
	got := make([][]result, 4)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = read(shared)
		}()
	}
	wg.Wait()
	want := read(fresh)
	for g := range got {
		if !reflect.DeepEqual(got[g], want) {
			t.Fatalf("reader %d of the shared ads disagrees with freshly parsed ones", g)
		}
	}
}
