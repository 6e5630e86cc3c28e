//go:build !race

package record

// Allocation guards on paths that borrow from a sync.Pool: under the
// race detector the pool drops items at random, so these run only
// without it.

import (
	"testing"
)

// TestReaderAllocatesNothing: a sealed strict parse of an escape-free
// record touches the heap not at all, and a sealed build costs only
// the line.
func TestReaderAllocatesNothing(t *testing.T) {
	good := line(func(b []byte) []byte { return AppendStr(AppendInt(b, "n", 42), "s", "plain") })
	if n := testing.AllocsPerRun(100, func() {
		if _, _, err := read(good); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a sealed parse allocated %v times", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		_ = line(func(b []byte) []byte { return AppendStr(AppendInt(b, "n", 42), "s", "plain") })
	}); n != 1 {
		t.Errorf("a sealed build allocated %v times, want 1", n)
	}
}
