package classad

import (
	"reflect"
	"strings"
	"sync"
	"testing"
)

// compatJobs and compatMachines span the expression shapes the
// closure compiler handled specially: constant conjuncts, my/target
// scopes, UNDEFINED and ERROR propagation, dynamic attributes, numeric
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

// TestMemoInvalidation verifies that Match and the memoized rendering
// follow the ad's mutations: Set and Delete must be visible to the
// next Match and String.
func TestMemoInvalidation(t *testing.T) {
	job := jobAd(t, `[ Requirements = target.Memory >= 64 ]`)
	machine := jobAd(t, `[ Memory = 128 ]`)
	if !Match(job, machine) {
		t.Fatal("baseline should match")
	}
	if !strings.Contains(job.String(), "64") {
		t.Fatalf("baseline rendering %s lacks the Requirements", job)
	}
	job.MustSetExpr("Requirements", "target.Memory >= 1024")
	if Match(job, machine) {
		t.Error("tightened Requirements still matching")
	}
	if !strings.Contains(job.String(), "1024") {
		t.Errorf("tightened Requirements missing from rendering %s: stale memo", job)
	}
	job.Delete("Requirements")
	if !Match(job, machine) {
		t.Error("deleted Requirements should accept everything")
	}
	if strings.Contains(job.String(), "Requirements") {
		t.Errorf("deleted Requirements still rendered: %s", job)
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
	orig := job.String() // memoized, so the copy starts out sharing it
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
	if got := job.String(); got != orig {
		t.Errorf("original rendering %s disturbed by mutating the copy, want %s", got, orig)
	}
	if !strings.Contains(cp.String(), "false") {
		t.Errorf("mutated copy still renders %s: stale shared memo", cp)
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
// ad is precompiled, every read — Match, Rank and the rendering — may
// run from many goroutines at once, over the ad and over copies that share its caches.  `make race`
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
		str   string
	}
	read := func(ads []*Ad) []result {
		var out []result
		for _, a := range ads {
			for _, b := range ads {
				out = append(out, result{Match(a, b), Rank(a, b), a.String()})
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
