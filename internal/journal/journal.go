// Package journal is the submit-side durability layer: an
// append-only, checksummed, record-framed write-ahead log.  The schedd
// appends a record for every job-queue transition *before* acting on
// it, so the queue a crash destroys in memory is always reconstructible
// from the log — the job_queue.log discipline of real Condor.
//
// The format is deliberately tolerant of exactly one failure mode and
// intolerant of all others.  A torn tail — the bytes a crash cut short
// mid-append — is normal and expected: Replay truncates to the last
// intact record and reports how many bytes it dropped, never an error.
// A damaged record *before* the tail is indistinguishable from a torn
// tail by design: replay stops at the first frame that fails its
// checksum, because trusting anything after a corrupt record would
// reorder history.  A clean tail replays completely with zero bytes
// dropped.
//
// Records come in two kinds.  Entry records are the transitions;
// snapshot records are compaction points: a snapshot's payload is a
// complete serialization of the writer's state, so replay is the last
// snapshot plus the entries after it, and Compact can discard the
// prefix the snapshot subsumes.
package journal

import (
	"encoding/binary"
	"hash/crc32"
	"sync"
)

// Frame layout, all integers little-endian:
//
//	offset 0  magic (0xA5)
//	offset 1  kind ('E' entry, 'S' snapshot)
//	offset 2  payload length, uint32
//	offset 6  CRC-32C (Castagnoli) of kind byte + payload, uint32
//	offset 10 payload
const (
	magic      byte = 0xA5
	headerSize      = 10

	// KindEntry frames one state transition.
	KindEntry byte = 'E'
	// KindSnapshot frames a complete state serialization; replay
	// discards everything before the last intact snapshot.
	KindSnapshot byte = 'S'
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Journal is the durable log.  The backing store is a byte slice — the
// "disk" that survives a simulated crash of its writer.  All methods
// are safe for concurrent use; the simulation is single-threaded, but
// the race-enabled journal-smoke test exercises concurrent append and
// compaction so the type stays correct under a live runtime too.
type Journal struct {
	mu   sync.Mutex
	data []byte

	appends     int
	compactions int
}

// New returns an empty journal.
func New() *Journal { return &Journal{} }

// grow ensures buf has room for n more bytes, doubling the backing
// array when it must reallocate.  Plain append approaches 1.25x growth
// for megabyte-scale slices, which re-copies a long log four times as
// often; a write-ahead log is the textbook case for exponential
// growth, keeping total copy traffic O(final size) over a run.
func grow(buf []byte, n int) []byte {
	if cap(buf)-len(buf) >= n {
		return buf
	}
	newCap := 2 * cap(buf)
	if newCap < len(buf)+n {
		newCap = len(buf) + n
	}
	if newCap < 1024 {
		newCap = 1024
	}
	nb := make([]byte, len(buf), newCap)
	copy(nb, buf)
	return nb
}

// frame appends one record frame to buf and returns the result.
func frame(buf []byte, kind byte, payload []byte) []byte {
	buf = grow(buf, headerSize+len(payload))
	var hdr [headerSize]byte
	hdr[0] = magic
	hdr[1] = kind
	binary.LittleEndian.PutUint32(hdr[2:6], uint32(len(payload)))
	crc := crc32.Update(crc32.Checksum([]byte{kind}, castagnoli), castagnoli, payload)
	binary.LittleEndian.PutUint32(hdr[6:10], crc)
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// Append writes one entry record.
func (j *Journal) Append(payload []byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.data = frame(j.data, KindEntry, payload)
	j.appends++
}

// AppendBatch writes a group of entry records under one critical
// section — the group-commit primitive.  The batch is framed
// back-to-back, so replay sees exactly the records one Append per
// payload would have produced, but the writer pays one lock
// acquisition (one fsync, on a real disk) for the whole batch.
func (j *Journal) AppendBatch(payloads [][]byte) {
	if len(payloads) == 0 {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, p := range payloads {
		j.data = frame(j.data, KindEntry, p)
		j.appends++
	}
}

// Compact atomically replaces the log with one snapshot record
// followed by the tail entries.  The caller serializes its complete
// state into snapshot; everything the snapshot subsumes is discarded.
func (j *Journal) Compact(snapshot []byte, tail [][]byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	// The old backing array is reused: frame copies the snapshot and
	// tail payloads in, and Bytes/Replay hand out copies, so no caller
	// holds a reference into j.data.  (The snapshot argument itself is
	// built by the caller in its own buffer, never aliased to j.data.)
	buf := frame(j.data[:0], KindSnapshot, snapshot)
	for _, p := range tail {
		buf = frame(buf, KindEntry, p)
	}
	j.data = buf
	j.compactions++
}

// Bytes returns a copy of the durable bytes — what a recovery process
// would read off the disk.
func (j *Journal) Bytes() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]byte, len(j.data))
	copy(out, j.data)
	return out
}

// SetBytes replaces the durable bytes wholesale.  Tests use it to
// model torn writes and corruption; recovery tooling uses it to mount
// a salvaged log.
func (j *Journal) SetBytes(b []byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.data = append(j.data[:0:0], b...)
}

// Size returns the current log length in bytes.
func (j *Journal) Size() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.data)
}

// Appends returns how many entry records have been appended over the
// journal's lifetime (compaction does not reset it).
func (j *Journal) Appends() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appends
}

// Compactions returns how many times the log has been compacted.
func (j *Journal) Compactions() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.compactions
}

// Replay decodes the journal's current contents.
func (j *Journal) Replay() Replay { return Decode(j.Bytes()) }

// Replay is the result of decoding a log: the last intact snapshot (if
// any), the entry payloads after it, and how the tail ended.
type Replay struct {
	// Snapshot is the payload of the last intact snapshot record, or
	// nil when the log holds none.
	Snapshot []byte
	// Entries are the entry payloads after the last snapshot, in
	// append order.
	Entries [][]byte
	// Records counts every intact record scanned, snapshots included.
	Records int
	// Truncated is the number of trailing bytes dropped as a torn or
	// corrupt tail; 0 means the log ended exactly on a record boundary.
	Truncated int
}

// Decode scans data from the front, accepting records until the first
// frame that is short, mis-tagged, or fails its checksum; everything
// from that point on is the torn tail.  Decode never fails: arbitrary
// input yields the longest intact prefix, possibly empty.  Returned
// payloads alias data.
func Decode(data []byte) Replay {
	var r Replay
	off := 0
	for {
		if len(data)-off < headerSize {
			break
		}
		if data[off] != magic {
			break
		}
		kind := data[off+1]
		if kind != KindEntry && kind != KindSnapshot {
			break
		}
		n := int(binary.LittleEndian.Uint32(data[off+2 : off+6]))
		if n < 0 || len(data)-off-headerSize < n {
			break
		}
		payload := data[off+headerSize : off+headerSize+n]
		want := binary.LittleEndian.Uint32(data[off+6 : off+10])
		crc := crc32.Update(crc32.Checksum([]byte{kind}, castagnoli), castagnoli, payload)
		if crc != want {
			break
		}
		if kind == KindSnapshot {
			r.Snapshot = payload
			r.Entries = r.Entries[:0]
		} else {
			r.Entries = append(r.Entries, payload)
		}
		r.Records++
		off += headerSize + n
	}
	r.Truncated = len(data) - off
	return r
}
