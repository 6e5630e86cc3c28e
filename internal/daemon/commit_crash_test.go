package daemon

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"github.com/errscope/grid/internal/journal"
	"github.com/errscope/grid/internal/sim"
)

// commitPoint is the disk at one batch the write-ahead journal took:
// the journal without the batch and with it (before any compaction
// that followed), the history beside them, and what a recovery of the
// uncrashed schedd at that instant rebuilds.
type commitPoint struct {
	at            sim.Time
	before, after []byte
	hist          []byte
	uncrashed     string
}

// commitPoints runs retireWorkload to the end one event at a time and
// returns every batch the journal took: the group commits, the flush
// that ends a recovery, and the commits a compaction follows.  The
// journal before a compaction is the journal before its event plus the
// batch the compaction flushes first: the open batch, or in a recovery
// the recover records of the jobs it requeued, in id order.  A
// compacting event whose appends are not exactly that batch fails the
// test rather than leaving a batch out.  It also returns how many jobs
// were submitted: all of them before the first event.
func commitPoints(t testing.TB) ([]commitPoint, int) {
	eng, s := retireWorkload(t)
	acked := int(s.nextID)
	var out []commitPoint
	for eng.Now() < sim.Time(12*time.Hour) && !s.AllTerminal() {
		var before [][]byte
		var prior []byte
		crashed := s.Crashed()
		if len(s.walBuf) > 0 || crashed {
			prior = s.wal.Bytes()
			for _, r := range s.walBuf {
				before = append(before, bytes.Clone(r))
			}
		}
		size, hist := s.wal.Size(), s.hist.Size()
		appends, compactions := s.wal.Appends(), s.wal.Compactions()
		if !eng.Step() {
			t.Fatal("the engine ran dry")
		}
		n := s.wal.Appends() - appends
		if n == 0 {
			continue
		}
		p := commitPoint{at: eng.Now(), hist: s.hist.Bytes()[:hist], uncrashed: recoveredFrom(s, eng.Now())}
		if s.wal.Compactions() == compactions {
			p.after = s.wal.Bytes()
			p.before = p.after[:size]
		} else {
			if crashed {
				for _, j := range s.live {
					if !j.State.Terminal() {
						before = append(before, recEvent("recover", j.ID, eng.Now()))
					}
				}
			}
			if prior == nil || n != len(before) {
				t.Fatalf("%s: %d records appended around a compaction, %d of them in the open batch", eng.Now(), n, len(before))
			}
			disk := journal.New()
			disk.SetBytes(prior)
			disk.AppendBatch(before)
			p.before, p.after = prior, disk.Bytes()
		}
		out = append(out, p)
	}
	if !s.AllTerminal() {
		t.Fatal("the workload did not drain")
	}
	return out, acked
}

// recoveredAt recovers the disk at now, checks the queue indexes and
// that every acknowledged submit survived, and renders the queue
// (rebuilt checks one report per terminal job and none for the rest).
func recoveredAt(t *testing.T, what string, now sim.Time, acked int, wal, hist []byte) (*Schedd, string) {
	t.Helper()
	s := recoverAt(t, now, wal, hist)
	if err := CheckScheddIndex(s); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if jobs := s.Jobs(); len(jobs) < acked || jobs[acked-1].ID != JobID(acked) {
		t.Fatalf("%s: %d jobs recovered, %d acknowledged", what, len(jobs), acked)
	}
	return s, rebuilt(t, s)
}

// TestCrashAtEveryCommit crashes retireWorkload at every batch the
// write-ahead journal took, three ways, and recovers each disk:
//
//   - the batch durable: the recovery rebuilds what the uncrashed
//     schedd holds at that instant;
//   - the batch dropped, as Crash drops an open batch;
//   - the batch torn, at every byte of the smallest batch and at every
//     61st byte of the others: the recovery cuts the torn tail, and
//     after the next compaction and a second crash rebuilds the same
//     queue again.
//
// Every recovery must succeed with its queue indexes consistent, keep
// every job whose Submit returned, and give each terminal job exactly
// one report.  Acknowledging a submit before its flush fails the
// dropped case of the first commit; a replay that skips a record kind
// fails the durable case of a commit after it.  The commits are split
// between two parallel halves: each recovery is independent of the
// others.
func TestCrashAtEveryCommit(t *testing.T) {
	points, acked := commitPoints(t)
	if len(points) < 100 {
		t.Fatalf("%d commits: the workload no longer exercises the journal", len(points))
	}
	smallest := 0
	for i, p := range points {
		if len(p.after)-len(p.before) < len(points[smallest].after)-len(points[smallest].before) {
			smallest = i
		}
	}
	for half := range 2 {
		t.Run(fmt.Sprint("half", half), func(t *testing.T) {
			t.Parallel()
			for i := half; i < len(points); i += 2 {
				crashAtCommit(t, i, points[i], acked, i == smallest)
			}
		})
	}
}

// crashAtCommit recovers the three disks of one commit.
func crashAtCommit(t *testing.T, i int, p commitPoint, acked int, everyByte bool) {
	if _, got := recoveredAt(t, "durable", p.at, acked, p.after, p.hist); got != p.uncrashed {
		t.Fatalf("commit %d (%s), batch durable:\n--- recovered ---\n%s--- uncrashed ---\n%s", i, p.at, got, p.uncrashed)
	}
	recoveredAt(t, "dropped", p.at, acked, p.before, p.hist)
	step := 61
	if everyByte {
		step = 1
	}
	for n := len(p.before) + 1; n < len(p.after); n += step {
		s, got := recoveredAt(t, "torn", p.at, acked, p.after[:n], p.hist)
		if err := s.ForceCompact(); err != nil {
			t.Fatal(err)
		}
		s.Crash()
		if err := s.Recover(nil); err != nil {
			t.Fatalf("commit %d (%s), batch torn at byte %d, second recovery: %v", i, p.at, n, err)
		}
		if again := rebuilt(t, s); again != got {
			t.Fatalf("commit %d (%s), batch torn at byte %d, crashed again after the next compaction:\n--- second ---\n%s--- first ---\n%s", i, p.at, n, again, got)
		}
	}
}
