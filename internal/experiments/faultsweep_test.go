package experiments

import (
	"strings"
	"testing"
)

// TestFaultSweep runs the full conformance matrix: every fault class
// at >= 3 sites, correct scope and disposition per cell, byte-stable
// traces per seed.
func TestFaultSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	rep, err := FaultSweep(42)
	if err != nil {
		t.Fatalf("%v\n%s", err, rep.Format())
	}
	if len(rep.Rows) < 30 {
		t.Errorf("sweep ran only %d cells", len(rep.Rows))
	}
}

// TestFaultSweepSmoke is the one-cell-per-class subset, the same run
// as `experiments -run fault-smoke`.
func TestFaultSweepSmoke(t *testing.T) {
	rep, err := FaultSweepSmoke(42)
	if err != nil {
		t.Fatalf("%v\n%s", err, rep.Format())
	}
	for _, row := range rep.Rows {
		if !strings.HasPrefix(row[4], "ok") {
			t.Errorf("%s @ %s: %s", row[0], row[1], row[4])
		}
	}
}

// TestFaultSweepSeedStability: the sweep's trace hash is a pure
// function of the seed.
func TestFaultSweepSeedStability(t *testing.T) {
	hashNote := func(rep *Report) string {
		for _, n := range rep.Notes {
			if strings.HasPrefix(n, "trace hash") {
				return n
			}
		}
		return ""
	}
	r1, err1 := FaultSweepSmoke(7)
	r2, err2 := FaultSweepSmoke(7)
	if err1 != nil || err2 != nil {
		t.Fatalf("errs: %v, %v", err1, err2)
	}
	h1, h2 := hashNote(r1), hashNote(r2)
	if h1 == "" || h1 != h2 {
		t.Errorf("trace hashes differ: %q vs %q", h1, h2)
	}
}
