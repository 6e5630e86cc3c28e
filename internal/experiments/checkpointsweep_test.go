package experiments

import (
	"os"
	"path/filepath"
	"testing"
)

// TestCheckpointSweep runs the whole checkpoint-interval sweep and
// compares its rows with the committed checkpoint_sweep.json byte for
// byte.  Beside TestChurnCrashMode (internal/pool) the sweep is the
// only user of crash-mode churn, so this pins that schedule's
// outcome: every cell's losses, requeues and waste.  `make
// checkpoint-sweep` rewrites the file.
func TestCheckpointSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("the checkpoint sweep runs 45 whole pools")
	}
	rows, rep, err := CheckpointSweep(goldenSeed)
	if err != nil {
		t.Fatalf("%v\n%s", err, rep.Format())
	}
	got, err := CheckpointSweepJSON(rows)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("..", "..", "checkpoint_sweep.json")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("checkpoint sweep diverged from %s at seed %d (rewrite it with `make checkpoint-sweep`)\n%s",
			path, goldenSeed, diffHint(string(want), string(got)))
	}
}
