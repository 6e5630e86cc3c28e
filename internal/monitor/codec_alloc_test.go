//go:build !race

package monitor

// Allocation guards on paths that borrow from a sync.Pool: under the
// race detector the pool drops items at random, so these run only
// without it.

import (
	"testing"
)

// TestCodecAllocations pins what the pump's per-event path costs:
// parsing an escape-free event line allocates nothing (its strings are
// slices of the line), and encoding one allocates exactly the line.
func TestCodecAllocations(t *testing.T) {
	ev := sampleEvents[1]
	line := EncodeEvent(ev)
	if n := testing.AllocsPerRun(100, func() {
		if got, err := ParseEvent(line); err != nil || got != ev {
			t.Fatalf("ParseEvent(%q) = %+v, %v", line, got, err)
		}
	}); n != 0 {
		t.Errorf("ParseEvent allocated %v times per line, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = EncodeEvent(ev) }); n != 1 {
		t.Errorf("EncodeEvent allocated %v times per line, want 1", n)
	}
}
