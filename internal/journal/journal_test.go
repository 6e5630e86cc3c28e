package journal

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// compact compacts j to a snapshot whose payload is p.
func compact(j *Journal, p []byte) {
	j.Compact(len(p), func(b []byte) []byte { return append(b, p...) })
}

func payloads(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("op=test seq=%d pad=%s", i, bytes.Repeat([]byte{'x'}, i%7)))
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	j := New()
	want := payloads(20)
	for _, p := range want {
		j.Append(p)
	}
	r := j.Replay()
	if r.Snapshot != nil {
		t.Fatalf("unexpected snapshot: %q", r.Snapshot)
	}
	if r.Truncated != 0 {
		t.Fatalf("clean log reported %d truncated bytes", r.Truncated)
	}
	if r.Records != len(want) {
		t.Fatalf("records = %d, want %d", r.Records, len(want))
	}
	if len(r.Entries) != len(want) {
		t.Fatalf("entries = %d, want %d", len(r.Entries), len(want))
	}
	for i, p := range want {
		if !bytes.Equal(r.Entries[i], p) {
			t.Fatalf("entry %d = %q, want %q", i, r.Entries[i], p)
		}
	}
}

func TestEmpty(t *testing.T) {
	r := New().Replay()
	if r.Snapshot != nil || len(r.Entries) != 0 || r.Records != 0 || r.Truncated != 0 {
		t.Fatalf("empty journal replay = %+v", r)
	}
}

func TestSnapshotResetsEntries(t *testing.T) {
	j := New()
	j.Append([]byte("before-1"))
	j.Append([]byte("before-2"))
	compact(j, []byte("state@2"))
	j.Append([]byte("after-1"))
	r := j.Replay()
	if string(r.Snapshot) != "state@2" {
		t.Fatalf("snapshot = %q", r.Snapshot)
	}
	if len(r.Entries) != 1 || string(r.Entries[0]) != "after-1" {
		t.Fatalf("entries = %q", r.Entries)
	}
	if r.Truncated != 0 {
		t.Fatalf("truncated = %d", r.Truncated)
	}
}

// TestCompactKeepsTail compacts a log, appends to it, and replays it:
// the snapshot and then only the entries appended after it.
func TestCompactKeepsTail(t *testing.T) {
	j := New()
	for i := 0; i < 10; i++ {
		j.Append([]byte(fmt.Sprintf("e%d", i)))
	}
	compact(j, []byte("snap"))
	j.AppendBatch([][]byte{[]byte("t1"), []byte("t2")})
	r := j.Replay()
	if string(r.Snapshot) != "snap" {
		t.Fatalf("snapshot = %q", r.Snapshot)
	}
	if len(r.Entries) != 2 || string(r.Entries[0]) != "t1" || string(r.Entries[1]) != "t2" {
		t.Fatalf("entries = %q", r.Entries)
	}
	if j.Compactions() != 1 || j.Appends() != 12 {
		t.Fatalf("compactions=%d appends=%d", j.Compactions(), j.Appends())
	}
}

// TestTornTail truncates a valid log at every possible byte boundary;
// replay must always recover exactly the records whose frames survived
// whole, and drop the rest as the torn tail.
func TestTornTail(t *testing.T) {
	j := New()
	want := payloads(8)
	var bounds []int // byte offset at which record i+1 starts
	for _, p := range want {
		j.Append(p)
		bounds = append(bounds, j.Size())
	}
	full := j.Bytes()
	for cut := 0; cut <= len(full); cut++ {
		r := Decode(full[:cut])
		intact := 0
		for _, b := range bounds {
			if b <= cut {
				intact++
			}
		}
		if r.Records != intact {
			t.Fatalf("cut=%d: records=%d, want %d", cut, r.Records, intact)
		}
		for i := 0; i < intact; i++ {
			if !bytes.Equal(r.Entries[i], want[i]) {
				t.Fatalf("cut=%d: entry %d = %q, want %q", cut, i, r.Entries[i], want[i])
			}
		}
		wantTrunc := cut
		if intact > 0 {
			wantTrunc = cut - bounds[intact-1]
		}
		if r.Truncated != wantTrunc {
			t.Fatalf("cut=%d: truncated=%d, want %d", cut, r.Truncated, wantTrunc)
		}
	}
}

// TestCorruptByte flips one byte at a time through a record in the
// middle of the log; replay must stop at or before that record and
// never surface a corrupted payload.
func TestCorruptByte(t *testing.T) {
	j := New()
	want := payloads(5)
	var bounds []int
	for _, p := range want {
		j.Append(p)
		bounds = append(bounds, j.Size())
	}
	full := j.Bytes()
	start, end := bounds[1], bounds[2] // corrupt record index 2
	for pos := start; pos < end; pos++ {
		data := append([]byte(nil), full...)
		data[pos] ^= 0xFF
		r := Decode(data)
		if r.Records > 2 {
			// Records 0 and 1 precede the corruption; anything past
			// them must have been rejected.
			t.Fatalf("pos=%d: accepted %d records past corruption", pos, r.Records)
		}
		for i, e := range r.Entries {
			if !bytes.Equal(e, want[i]) {
				t.Fatalf("pos=%d: surfaced corrupted entry %d: %q", pos, i, e)
			}
		}
	}
}

func TestSetBytesRestores(t *testing.T) {
	j := New()
	j.Append([]byte("alpha"))
	compact(j, []byte("snap"))
	j.Append([]byte("beta"))
	saved := j.Bytes()

	k := New()
	k.SetBytes(saved)
	r := k.Replay()
	if string(r.Snapshot) != "snap" || len(r.Entries) != 1 || string(r.Entries[0]) != "beta" {
		t.Fatalf("restored replay = %+v", r)
	}
}

// TestConcurrentAppendCompact is the journal-smoke race test: writers
// Append while a compactor replays the log and compacts it to a
// snapshot, all under the race detector.  Compact replaces the whole
// log, so records appended between a Replay and its Compact are
// discarded; what must hold is that no replay, mid-run or final, ever
// sees a torn frame, that the lifetime append count survives
// compaction, and that the tail left after the last compaction keeps
// each writer's records in append order.
func TestConcurrentAppendCompact(t *testing.T) {
	j := New()
	const writers = 4
	const perWriter = 200

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				j.Append([]byte(fmt.Sprintf("w=%d i=%d", w, i)))
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for c := 0; c < 50; c++ {
			r := j.Replay()
			if r.Truncated != 0 {
				t.Errorf("mid-run replay truncated %d bytes", r.Truncated)
			}
			compact(j, []byte(fmt.Sprintf("compaction=%d entries=%d", c, len(r.Entries))))
		}
	}()
	wg.Wait()

	r := j.Replay()
	if r.Truncated != 0 {
		t.Fatalf("final replay truncated %d bytes", r.Truncated)
	}
	if r.Snapshot == nil {
		t.Fatalf("final replay lost the snapshot")
	}
	if j.Appends() != writers*perWriter {
		t.Fatalf("appends = %d, want %d", j.Appends(), writers*perWriter)
	}
	if j.Compactions() != 50 {
		t.Fatalf("compactions = %d, want 50", j.Compactions())
	}
	last := [writers]int{-1, -1, -1, -1}
	for _, e := range r.Entries {
		var w, i int
		if _, err := fmt.Sscanf(string(e), "w=%d i=%d", &w, &i); err != nil || w < 0 || w >= writers {
			t.Fatalf("tail entry %q: %v", e, err)
		}
		if i <= last[w] {
			t.Fatalf("writer %d: record %d after %d", w, i, last[w])
		}
		last[w] = i
	}
}
