package classad

import "testing"

func jobAd(t *testing.T, src string) *Ad {
	t.Helper()
	ad, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return ad
}

func TestMatchTwoWay(t *testing.T) {
	job := jobAd(t, `[
		ImageSize = 100;
		Owner = "alice";
		Requirements = target.Memory >= my.ImageSize && target.Arch == "X86_64";
	]`)
	machine := jobAd(t, `[
		Memory = 512;
		Arch = "X86_64";
		Requirements = target.Owner != "mallory";
	]`)
	if !Match(job, machine) {
		t.Error("compatible ads should match")
	}
	if !Match(machine, job) {
		t.Error("match must be symmetric")
	}

	evil := jobAd(t, `[ ImageSize = 10; Owner = "mallory";
		Requirements = target.Memory >= my.ImageSize ]`)
	if Match(evil, machine) {
		t.Error("machine requirements should reject mallory")
	}

	big := jobAd(t, `[ ImageSize = 1024; Owner = "alice";
		Requirements = target.Memory >= my.ImageSize ]`)
	if Match(big, machine) {
		t.Error("job requirements should reject small machine")
	}
}

func TestMatchUndefinedIsNotTrue(t *testing.T) {
	// Requirements referencing an attribute neither ad defines is
	// UNDEFINED, and UNDEFINED must not admit a match.
	job := jobAd(t, `[ Requirements = target.NoSuchAttr >= 5 ]`)
	machine := jobAd(t, `[ Memory = 512 ]`)
	if Match(job, machine) {
		t.Error("undefined requirements must not match")
	}
	// Same for ERROR.
	job2 := jobAd(t, `[ Requirements = 1/0 == 1 ]`)
	if Match(job2, machine) {
		t.Error("erroneous requirements must not match")
	}
	// Non-boolean requirements must not match.
	job3 := jobAd(t, `[ Requirements = 42 ]`)
	if Match(job3, machine) {
		t.Error("non-boolean requirements must not match")
	}
}

func TestMatchMissingRequirementsAcceptsAll(t *testing.T) {
	a := jobAd(t, `[ x = 1 ]`)
	b := jobAd(t, `[ y = 2 ]`)
	if !Match(a, b) {
		t.Error("ads without requirements should match")
	}
}

func TestRank(t *testing.T) {
	job := jobAd(t, `[ Rank = target.Memory ]`)
	m1 := jobAd(t, `[ Memory = 256 ]`)
	m2 := jobAd(t, `[ Memory = 1024 ]`)
	if r := Rank(job, m1); r != 256 {
		t.Errorf("rank m1 = %v", r)
	}
	if r := Rank(job, m2); r != 1024 {
		t.Errorf("rank m2 = %v", r)
	}
	// Missing, undefined, boolean ranks.
	norank := jobAd(t, `[ x = 1 ]`)
	if r := Rank(norank, m1); r != 0 {
		t.Errorf("missing rank = %v", r)
	}
	boolRank := jobAd(t, `[ Rank = target.Memory > 512 ]`)
	if r := Rank(boolRank, m1); r != 0 {
		t.Errorf("false bool rank = %v", r)
	}
	if r := Rank(boolRank, m2); r != 1 {
		t.Errorf("true bool rank = %v", r)
	}
	undefRank := jobAd(t, `[ Rank = target.NoSuch ]`)
	if r := Rank(undefRank, m1); r != 0 {
		t.Errorf("undefined rank = %v", r)
	}
}

func TestMatchRealisticCondorAds(t *testing.T) {
	// A startd ad in the style the paper's pool would publish.
	machine := jobAd(t, `
Machine = "c01.cs.wisc.edu"
Arch = "X86_64"
OpSys = "LINUX"
Memory = 2048
Disk = 100000
HasJava = true
JavaVersion = "1.3.1"
State = "Unclaimed"
LoadAvg = 0.05
Requirements = LoadAvg < 0.3 && target.ImageSize <= Memory
Rank = target.Department == "CS" ? 10 : 0
`)
	job := jobAd(t, `
Universe = "java"
Owner = "thain"
Department = "CS"
ImageSize = 128
Executable = "Sim.class"
Requirements = target.HasJava && target.OpSys == "LINUX" && target.Memory >= 512
Rank = target.Memory
`)
	if !Match(job, machine) {
		t.Fatal("realistic ads should match")
	}
	if r := Rank(machine, job); r != 10 {
		t.Errorf("machine rank of CS job = %v", r)
	}
	if r := Rank(job, machine); r != 2048 {
		t.Errorf("job rank of machine = %v", r)
	}

	// A machine whose owner declines to advertise Java (the startd
	// self-test of Section 5) must not match the java job.
	nojava := machine.Copy()
	nojava.SetBool("HasJava", false)
	if Match(job, nojava) {
		t.Error("job requiring java must not match a machine without it")
	}
}
