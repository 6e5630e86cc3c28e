package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/errscope/grid/internal/faultinject"
)

// The golden-trace regression suite: the canonical propagation trace
// of every fault class is committed under testdata/traces/ and every
// run must reproduce it byte for byte at the pinned seed.  A diff here
// means the error-propagation behaviour of the stack changed — which
// is sometimes intended (regenerate with -update) but never silent.

var updateGolden = flag.Bool("update", false,
	"rewrite testdata/traces/*.jsonl from the current implementation")

const goldenSeed = 42

func TestGoldenTraces(t *testing.T) {
	if testing.Short() {
		t.Skip("golden traces run full sweep cells")
	}
	rep, traces, err := Traces(goldenSeed)
	if err != nil {
		t.Fatalf("Traces(%d): %v\n%s", goldenSeed, err, rep.Format())
	}
	if len(traces) != len(faultinject.Classes) {
		t.Fatalf("traced %d classes, want %d", len(traces), len(faultinject.Classes))
	}

	dir := filepath.Join("testdata", "traces")
	if *updateGolden {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, class := range faultinject.Classes {
		class := class
		t.Run(string(class), func(t *testing.T) {
			got, ok := traces[string(class)]
			if !ok {
				t.Fatalf("no trace produced for class %s", class)
			}
			path := filepath.Join(dir, string(class)+".jsonl")
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden trace (run `go test ./internal/experiments -run TestGoldenTraces -update`): %v", err)
			}
			if got != string(want) {
				t.Errorf("trace for %s diverged from golden bytes at seed %d\n%s",
					class, goldenSeed, diffHint(string(want), got))
			}
		})
	}
}

// TestGoldenTracesParallel runs every canonical simulation cell on the
// parallel engine and compares its export against the committed golden
// bytes: sharded execution must not move, drop, or reorder a single
// trace line.  (The connection classes are live-TCP scenarios with no
// simulation engine, so only the sim cells apply.)
func TestGoldenTracesParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("golden traces run full sweep cells")
	}
	for _, c := range canonicalSimCells() {
		c := c
		t.Run(string(c.class), func(t *testing.T) {
			got, _, err := c.simTrace(goldenSeed, 4)
			if err != nil {
				t.Fatalf("parallel trace: %v", err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", "traces", string(c.class)+".jsonl"))
			if err != nil {
				t.Fatalf("missing golden trace: %v", err)
			}
			if got != string(want) {
				t.Errorf("parallel trace for %s diverged from golden bytes at seed %d\n%s",
					c.class, goldenSeed, diffHint(string(want), got))
			}
		})
	}
}

// diffHint locates the first differing line of two JSONL exports, a
// far better failure message than two multi-kilobyte dumps.
func diffHint(want, got string) string {
	wl := strings.Split(strings.TrimRight(want, "\n"), "\n")
	gl := strings.Split(strings.TrimRight(got, "\n"), "\n")
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("first diff at line %d:\n  golden: %s\n  got:    %s",
				i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("golden has %d lines, got %d", len(wl), len(gl))
}
