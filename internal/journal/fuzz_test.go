package journal

import (
	"bytes"
	"testing"
)

// fuzzSeed builds a small valid log to seed the corpus.
func fuzzSeed() []byte {
	j := New()
	j.Append([]byte("op=submit id=1"))
	j.Append([]byte("op=match id=1 machine=big"))
	compact(j, []byte("snapshot nextID=2"))
	j.Append([]byte("op=exec id=1"))
	j.Append([]byte("op=final id=1"))
	return j.Bytes()
}

// FuzzDecode is the replay guarantee: arbitrary bytes — torn tails,
// flipped bits, pure garbage — must never panic, and whatever Decode
// accepts must survive a re-encode/re-decode round trip unchanged.
func FuzzDecode(f *testing.F) {
	valid := fuzzSeed()
	f.Add(valid)
	f.Add(valid[:len(valid)-3])       // torn tail
	f.Add(valid[:headerSize-1])       // shorter than one header
	f.Add([]byte{})                   // empty log
	f.Add([]byte("garbage"))          // no magic at all
	f.Add(append([]byte{magic}, 'X')) // bad kind byte
	mangled := append([]byte(nil), valid...)
	mangled[len(mangled)/2] ^= 0xFF // corrupt a middle record
	f.Add(mangled)
	f.Fuzz(func(t *testing.T, data []byte) {
		r := Decode(data)
		if r.Truncated < 0 || r.Truncated > len(data) {
			t.Fatalf("truncated=%d out of range for %d input bytes", r.Truncated, len(data))
		}
		// Rebuild a log from what was accepted; it must decode back to
		// exactly the same state with a clean tail.
		j := New()
		if r.Snapshot != nil {
			compact(j, r.Snapshot)
		}
		for _, e := range r.Entries {
			j.Append(e)
		}
		r2 := j.Replay()
		if r2.Truncated != 0 {
			t.Fatalf("re-encoded log has a torn tail: %d bytes", r2.Truncated)
		}
		if !bytes.Equal(r2.Snapshot, r.Snapshot) {
			t.Fatalf("snapshot changed across round trip: %q vs %q", r2.Snapshot, r.Snapshot)
		}
		if len(r2.Entries) != len(r.Entries) {
			t.Fatalf("entry count changed across round trip: %d vs %d", len(r2.Entries), len(r.Entries))
		}
		for i := range r.Entries {
			if !bytes.Equal(r2.Entries[i], r.Entries[i]) {
				t.Fatalf("entry %d changed across round trip: %q vs %q", i, r2.Entries[i], r.Entries[i])
			}
		}
	})
}

// FuzzDecodeTruncation drives the torn-tail guarantee from the encoder
// side: for any fuzzed set of records, every prefix of the encoded log
// must replay to a prefix of the records — never an error, never a
// record that was not written.
func FuzzDecodeTruncation(f *testing.F) {
	f.Add([]byte("op=submit id=1"), []byte("op=match id=1"), 7)
	f.Add([]byte(""), []byte("x"), 0)
	f.Add([]byte("snapshot-ish"), []byte("tail"), 25)
	f.Fuzz(func(t *testing.T, a, b []byte, cut int) {
		j := New()
		j.Append(a)
		j.Append(b)
		full := j.Bytes()
		if cut < 0 {
			cut = -cut
		}
		cut %= len(full) + 1
		r := Decode(full[:cut])
		want := [][]byte{a, b}
		if len(r.Entries) > len(want) {
			t.Fatalf("cut=%d: recovered %d records from a 2-record log", cut, len(r.Entries))
		}
		for i, e := range r.Entries {
			if !bytes.Equal(e, want[i]) {
				t.Fatalf("cut=%d: record %d = %q, want %q", cut, i, e, want[i])
			}
		}
		if len(r.Entries) == len(want) && r.Truncated != len(full)-cut {
			// Both records intact: only bytes past the final frame may
			// be reported torn, and here there are none inside full.
			t.Fatalf("cut=%d: full prefix reported %d torn bytes", cut, r.Truncated)
		}
	})
}
