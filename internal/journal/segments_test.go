package journal

import (
	"bytes"
	"testing"
)

// TestAppendBatchAllocs pins that framing a record allocates nothing:
// a batch of eight records into a segment with room for them writes
// in place.
func TestAppendBatchAllocs(t *testing.T) {
	batch := payloads(8)
	j := New()
	j.Append([]byte("first"))
	mark := j.segs[0]
	allocs := testing.AllocsPerRun(100, func() {
		j.segs[0] = mark // rewind, so the segment always has room
		j.AppendBatch(batch)
	})
	if allocs != 0 {
		t.Fatalf("an 8-record batch allocates %v times, want 0", allocs)
	}
}

// TestDecodeAllocs pins that decoding allocates only the growth of the
// Entries slice: checking a frame allocates nothing.
func TestDecodeAllocs(t *testing.T) {
	const n = 1000
	j := New()
	j.AppendBatch(payloads(n))
	log := j.Bytes()
	growth := testing.AllocsPerRun(10, func() {
		var entries [][]byte
		for range n {
			entries = append(entries, nil)
		}
	})
	allocs := testing.AllocsPerRun(10, func() {
		if r := Decode(log); r.Records != n {
			t.Fatalf("decoded %d records, want %d", r.Records, n)
		}
	})
	if allocs > growth {
		t.Fatalf("decoding %d records allocates %v times; the Entries slice grows in %v", n, allocs, growth)
	}
}

// TestLargeRecordSegment appends a record larger than any segment: it
// gets a segment of its own size, and the log around it replays.
func TestLargeRecordSegment(t *testing.T) {
	j := New()
	j.Append([]byte("before"))
	big := bytes.Repeat([]byte{'x'}, maxSegment+1)
	j.Append(big)
	j.Append([]byte("after"))
	if len(j.segs) != 3 || len(j.segs[1]) != headerSize+len(big) {
		t.Fatalf("segments %d, the large one %d bytes", len(j.segs), len(j.segs[1]))
	}
	r := j.Replay()
	if len(r.Entries) != 3 || !bytes.Equal(r.Entries[1], big) || string(r.Entries[2]) != "after" {
		t.Fatalf("replay = %d entries", len(r.Entries))
	}
}

// TestAppendFuncOutgrowsItsSegment appends, through AppendFunc, a
// payload larger than the size it declared and than the segment opened
// for it: the payload lands as a copy in a segment of its own, and the
// segment opened for it is not left empty in the log but taken by the
// next record.
func TestAppendFuncOutgrowsItsSegment(t *testing.T) {
	j := New()
	big := bytes.Repeat([]byte{'x'}, 2*firstSegment)
	j.AppendFunc(1, func(b []byte) []byte { return append(b, big...) })
	j.Append([]byte("after"))
	if len(j.segs) != 2 || len(j.segs[0]) != headerSize+len(big) || cap(j.segs[1]) != firstSegment {
		t.Fatalf("segments %d, the first %d bytes", len(j.segs), len(j.segs[0]))
	}
	r := j.Replay()
	if len(r.Entries) != 2 || !bytes.Equal(r.Entries[0], big) || string(r.Entries[1]) != "after" {
		t.Fatalf("replay = %d entries", len(r.Entries))
	}
}

// TestCompactGrowingSnapshot compacts a log whose snapshot grows from
// one compaction to the next, with entries between, and checks that
// the segments the journal holds — the log's and the spares — stay
// within a small multiple of the log's size: a compaction keeps the
// old log's segments for the new one and lets go of older spares.
func TestCompactGrowingSnapshot(t *testing.T) {
	j := New()
	entry := bytes.Repeat([]byte{'e'}, 60)
	for round := 1; round <= 50; round++ {
		for range 100 {
			j.Append(entry)
		}
		snap := bytes.Repeat([]byte{'s'}, round*8<<10)
		j.Compact(len(snap), func(b []byte) []byte { return append(b, snap...) })
		held := 0
		for _, s := range j.segs {
			held += cap(s)
		}
		for _, s := range j.spare {
			held += cap(s)
		}
		if held > 6*j.Size()+maxSegment {
			t.Fatalf("round %d: segments hold %d bytes for a %d-byte log", round, held, j.Size())
		}
	}
	if r := j.Replay(); len(r.Snapshot) != 50*8<<10 || len(r.Entries) != 0 {
		t.Fatalf("replay = %d-byte snapshot, %d entries", len(r.Snapshot), len(r.Entries))
	}
}

// FuzzSegments drives a journal through random sequences of its
// writes — Append, AppendBatch, AppendFunc with an exact and with a
// too-small size, a record larger than a segment, Compact, SetBytes of
// a torn prefix and Intact — and checks after each one that Replay
// equals Decode of Bytes, that no record spans two segments, and that
// no payload an earlier Replay returned has changed since the last
// compaction; and that no segment but the first is empty.
func FuzzSegments(f *testing.F) {
	f.Add([]byte{0, 10, 1, 3, 2, 40, 3, 60, 0, 200})
	f.Add([]byte{4, 1, 0, 5, 5, 30, 0, 7, 2, 9, 6, 90, 0, 3, 7, 0, 0, 4})
	f.Add([]byte{1, 9, 1, 9, 1, 9, 4, 255, 3, 250, 6, 17, 1, 2, 7, 0, 5, 8, 0, 1})
	f.Add([]byte{6, 0, 0, 1, 3, 255, 3, 255, 3, 255, 5, 255, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		// Every op copies and decodes the whole log twice; a bound on
		// their number keeps one input fast.
		ops = ops[:min(len(ops), 128)]
		j := New()
		seq := 0
		payload := func(n int) []byte {
			seq++
			p := make([]byte, n)
			for i := range p {
				p[i] = byte(seq + i)
			}
			return p
		}
		type held struct{ p, want []byte }
		type at struct {
			p *byte
			n int
		}
		var kept []held
		seen := make(map[at]bool)
		keep := func(p []byte) {
			if len(p) > 0 && !seen[at{&p[0], len(p)}] {
				seen[at{&p[0], len(p)}] = true
				kept = append(kept, held{p, bytes.Clone(p)})
			}
		}
		setBytes := false // segment 0 holds what SetBytes mounted
		for i := 0; i+1 < len(ops); i += 2 {
			arg := int(ops[i+1])
			switch ops[i] % 8 {
			case 0:
				j.Append(payload(arg))
			case 1:
				batch := make([][]byte, arg%9)
				for k := range batch {
					batch[k] = payload(arg * k)
				}
				j.AppendBatch(batch)
			case 2, 3:
				p := payload(arg * 8)
				size := len(p)
				if ops[i]%8 == 3 {
					size /= 2
				}
				j.AppendFunc(size, func(b []byte) []byte { return append(b, p...) })
			case 4:
				n := 2*firstSegment + arg*97
				if arg == 255 && j.Size() < maxSegment {
					n = maxSegment + 1
				}
				j.Append(payload(n))
			case 5:
				p := payload(arg * 16)
				size := len(p)
				if arg%2 == 1 {
					size /= 3
				}
				j.Compact(size, func(b []byte) []byte { return append(b, p...) })
				kept, setBytes = nil, false
				clear(seen)
			case 6:
				b := j.Bytes()
				j.SetBytes(b[:len(b)*arg/255])
				setBytes = true
			case 7:
				j.Intact()
			}

			r, want := j.Replay(), Decode(j.Bytes())
			if (r.Snapshot == nil) != (want.Snapshot == nil) || !bytes.Equal(r.Snapshot, want.Snapshot) ||
				r.Records != want.Records || r.Truncated != want.Truncated || len(r.Entries) != len(want.Entries) {
				t.Fatalf("op %d: Replay = %d records, %d entries, %d truncated; Decode(Bytes) = %d, %d, %d",
					i/2, r.Records, len(r.Entries), r.Truncated, want.Records, len(want.Entries), want.Truncated)
			}
			for k := range r.Entries {
				if !bytes.Equal(r.Entries[k], want.Entries[k]) {
					t.Fatalf("op %d: entry %d differs from Decode(Bytes)", i/2, k)
				}
			}
			for k, s := range j.segs {
				if k > 0 && len(s) == 0 {
					t.Fatalf("op %d: segment %d of %d is empty", i/2, k, len(j.segs))
				}
				if k == 0 && setBytes {
					continue
				}
				if tail := Decode(s).Truncated; tail != 0 {
					t.Fatalf("op %d: segment %d of %d ends in %d bytes of a record", i/2, k, len(j.segs), tail)
				}
			}
			for k, h := range kept {
				if !bytes.Equal(h.p, h.want) {
					t.Fatalf("op %d: payload %d of an earlier replay changed", i/2, k)
				}
			}
			keep(r.Snapshot)
			for _, e := range r.Entries {
				keep(e)
			}
		}
	})
}
