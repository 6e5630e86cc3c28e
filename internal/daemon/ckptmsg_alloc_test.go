//go:build !race

package daemon

// Allocation guards on paths that borrow from a sync.Pool: under the
// race detector the pool drops items at random, so these run only
// without it.

import (
	"testing"
	"time"
)

// TestParseCheckpointAllocatesNothing: a sealed strict parse of a
// checkpoint touches the heap not at all (the parent paid for the
// checksum's []byte copy and a FormatInt per field).
func TestParseCheckpointAllocatesNothing(t *testing.T) {
	line := EncodeCheckpoint(12, 95*time.Minute)
	if n := testing.AllocsPerRun(100, func() {
		if _, _, err := ParseCheckpoint(line); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ParseCheckpoint allocated %v times", n)
	}
}
