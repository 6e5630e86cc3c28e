package daemon

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/errscope/grid/internal/journal"
	"github.com/errscope/grid/internal/jvm"
	"github.com/errscope/grid/internal/sim"
)

// twoAdQueue queues n idle jobs — half Java, half Standard Universe,
// so two distinct ad texts in the whole queue, like the benchmark's
// pools — folds the journal into a snapshot and crashes the schedd.
func twoAdQueue(n int) (*sim.Engine, *Schedd) {
	eng := sim.New(1)
	s := NewSchedd(sim.NewBus(eng, 5*time.Millisecond), DefaultParams(), "schedd")
	for i := 0; i < n; i++ {
		j := &Job{Owner: "user", Ad: NewJavaJobAd("user", 128),
			Program: jvm.WellBehaved(time.Duration(i+1) * time.Second), Executable: fmt.Sprintf("/home/user/job%d.class", i)}
		if i%2 == 1 {
			j.Universe, j.Ad = "standard", NewStandardJobAd("user", 128)
		}
		s.Submit(j)
	}
	eng.RunFor(time.Second)
	s.ForceCompact()
	s.Crash()
	return eng, s
}

func heapAlloc() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func recoverAlloc(t testing.TB, s *Schedd) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := s.Recover(nil); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestRecoverCostIsTheDistinctAds is the clock-free guard on what a
// recovery costs.  A queue of 4096 jobs holding two distinct ads must
// rebuild without parsing an ad per job: the bytes allocated per
// recovered job stay under a budget that one classad.Parse per job
// (18 KB per job before the ad table, 3 KB with it) overshoots more
// than three times over; and twice the queue costs twice the bytes,
// not more.
func TestRecoverCostIsTheDistinctAds(t *testing.T) {
	const jobs, budget = 4096, 5000 // bytes per recovered job
	_, s := twoAdQueue(jobs)
	small := recoverAlloc(t, s)
	if len(s.Jobs()) != jobs {
		t.Fatalf("recovered %d jobs, want %d", len(s.Jobs()), jobs)
	}
	if per := small / jobs; per > budget {
		t.Errorf("recovery allocated %d bytes per job, budget %d: is every job's ad parsed again?", per, budget)
	}
	_, s = twoAdQueue(2 * jobs)
	if large := recoverAlloc(t, s); float64(large) > 2.2*float64(small) {
		t.Errorf("recovering %d jobs allocated %d bytes, %d jobs %d: more than double", 2*jobs, large, jobs, small)
	}
}

// TestRecoveredQueueDoesNotPinTheLog recovers from a snapshot that is
// almost all padding — an 8 MB value under a key the decoder ignores
// — and measures the live heap before and after.  The rebuilt queue
// is a few hundred small jobs; if any of their strings were a slice
// of the decoded log, the whole copy of it would stay reachable and
// the heap would carry 8 MB more.
func TestRecoveredQueueDoesNotPinTheLog(t *testing.T) {
	const pad = 8 << 20
	_, s := twoAdQueue(256)
	snap := s.Journal().Replay().Snapshot
	header, rest, _ := bytes.Cut(snap, []byte{'\n'})
	var padded []byte
	padded = append(padded, header...)
	padded = append(padded, " pad=\""...)
	padded = append(padded, bytes.Repeat([]byte{'x'}, pad)...)
	padded = append(padded, "\"\n"...)
	padded = append(padded, rest...)
	disk := journal.New()
	disk.Compact(padded, nil)
	// One more record doubles the log's backing array now, so that
	// recovery's own appends do not grow it inside the measurement.
	disk.Append(recEvent("relax", 1, 0))
	padded, snap = nil, nil

	before := heapAlloc()
	if err := s.Recover(disk); err != nil {
		t.Fatal(err)
	}
	after := heapAlloc()
	if len(s.Jobs()) != 256 || s.Job(256).Executable != "/home/user/job255.class" {
		t.Fatalf("recovered %d jobs", len(s.Jobs()))
	}
	if grew := int64(after) - int64(before); grew > pad/2 {
		t.Errorf("live heap grew %d bytes across a recovery of 256 jobs: the queue pins the %d-byte log", grew, disk.Size())
	}
	runtime.KeepAlive(disk)
}

func BenchmarkRecover(b *testing.B) {
	_, s := twoAdQueue(8192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Recover(nil); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		s.ForceCompact()
		s.Crash()
		b.StartTimer()
	}
}
