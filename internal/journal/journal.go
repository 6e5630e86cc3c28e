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
	"slices"
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

// Segment sizes: the first segment holds firstSegment bytes and each
// next one twice its predecessor, up to maxSegment.  A frame never
// spans two segments; one larger than the next segment gets a segment
// of exactly its own size.
const (
	firstSegment = 4 << 10
	maxSegment   = 1 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// The CRC of each kind byte alone: a frame's checksum continues from
// its kind's seed over the payload.
var (
	entrySeed    = crc32.Checksum([]byte{KindEntry}, castagnoli)
	snapshotSeed = crc32.Checksum([]byte{KindSnapshot}, castagnoli)
)

func checksum(kind byte, payload []byte) uint32 {
	seed := entrySeed
	if kind == KindSnapshot {
		seed = snapshotSeed
	}
	return crc32.Update(seed, castagnoli, payload)
}

// Journal is the durable log — the "disk" that survives a simulated
// crash of its writer.  It is a sequence of segments that are only
// ever appended to: growing the log allocates a new segment and never
// copies the old ones, so a payload Replay returned stays valid as
// later records are appended.  Only Compact rewrites: it reuses the
// old segments for the new log.  All methods are safe for concurrent
// use; the simulation is single-threaded, but the race-enabled
// journal-smoke test exercises concurrent append and compaction so the
// type stays correct under a live runtime too.  The payloads Replay
// and Intact return are the exception: a Compact writes over them, so
// they must not be read while another goroutine compacts.
type Journal struct {
	mu sync.Mutex
	// segs is the log, in order; every segment but the last is sealed.
	// spare holds the segments the last compaction emptied that the
	// log has not taken back yet, for it to grow into before it
	// allocates.
	segs  [][]byte
	spare [][]byte
	size  int

	appends     int
	compactions int
}

// New returns an empty journal.
func New() *Journal { return &Journal{} }

// room returns the last segment with at least n bytes free after its
// length, opening a new one — a spare if one is big enough — when the
// last segment has no room.
func (j *Journal) room(n int) []byte {
	k := len(j.segs)
	if k > 0 && cap(j.segs[k-1])-len(j.segs[k-1]) >= n {
		return j.segs[k-1]
	}
	var seg []byte
	for i, s := range j.spare {
		if cap(s) >= n {
			seg = s
			j.spare = slices.Delete(j.spare, i, i+1)
			break
		}
	}
	if seg == nil {
		size := firstSegment
		if k > 0 {
			size = min(2*cap(j.segs[k-1]), maxSegment)
		}
		seg = make([]byte, 0, max(size, n))
	}
	j.segs = append(j.segs, seg)
	return seg
}

// seal writes the header of the frame at seg[off:], whose payload runs
// to the end of seg, and makes seg the log's last segment.
func (j *Journal) seal(seg []byte, off int, kind byte) {
	hdr, payload := seg[off:off+headerSize], seg[off+headerSize:]
	hdr[0] = magic
	hdr[1] = kind
	binary.LittleEndian.PutUint32(hdr[2:6], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[6:10], checksum(kind, payload))
	j.size += len(seg) - off
	j.segs[len(j.segs)-1] = seg
}

// write frames a copy of payload.
func (j *Journal) write(kind byte, payload []byte) {
	seg := j.room(headerSize + len(payload))
	off := len(seg)
	j.seal(append(seg[:off+headerSize], payload...), off, kind)
}

// writeFunc frames the payload fn appends to the empty slice it is
// given, which has room for size bytes in place; fn must append to
// that slice.  A payload that outgrew the room, which append moved to
// a new array, is framed as a copy.
func (j *Journal) writeFunc(kind byte, size int, fn func([]byte) []byte) {
	seg := j.room(headerSize + size)
	off := len(seg)
	at := off + headerSize
	p := fn(seg[at:at])
	if len(p) > cap(seg)-at {
		if off == 0 {
			// The segment room opened holds nothing: hand it back
			// rather than leave it empty in the log.
			j.segs = j.segs[:len(j.segs)-1]
			j.spare = append(j.spare, seg)
		}
		j.write(kind, p)
		return
	}
	j.seal(seg[:at+len(p)], off, kind)
}

// Append writes one entry record.
func (j *Journal) Append(payload []byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.write(KindEntry, payload)
	j.appends++
}

// AppendFunc writes one entry record whose payload fn appends, in
// place, to the slice it is given; size is the payload's length, or a
// bound on it.  fn must return an append to that slice; it runs under
// the journal's lock and must not call the journal.
func (j *Journal) AppendFunc(size int, fn func([]byte) []byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.writeFunc(KindEntry, size, fn)
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
		j.write(KindEntry, p)
		j.appends++
	}
}

// Compact atomically replaces the log with one snapshot record, whose
// payload fn appends in place as AppendFunc's does; size is its length
// or a bound on it.  Everything the snapshot subsumes is discarded, and
// the new log is written into the old one's segments: a payload an
// earlier Replay returned is overwritten, so fn must not read one.
// The spares an earlier compaction left unused are let go, so the
// journal holds at most the old log's segments and the new log's.
func (j *Journal) Compact(size int, fn func([]byte) []byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	clear(j.spare[:cap(j.spare)])
	spare, fits := j.spare[:0], false
	for _, s := range j.segs {
		spare = append(spare, s[:0])
		fits = fits || cap(s) >= headerSize+size
	}
	if !fits {
		// A snapshot larger than the old log's segments gets one with
		// room to spare, so that the next, slightly larger snapshot of
		// a growing queue fits it too.
		spare = append(spare, make([]byte, 0, max(firstSegment, 2*(headerSize+size))))
	}
	clear(j.segs)
	j.segs, j.spare, j.size = j.segs[:0], spare, 0
	j.writeFunc(KindSnapshot, size, fn)
	j.compactions++
}

// Bytes returns a copy of the durable bytes — what a recovery process
// would read off the disk.
func (j *Journal) Bytes() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.bytes()
}

func (j *Journal) bytes() []byte {
	out := make([]byte, 0, j.size)
	for _, s := range j.segs {
		out = append(out, s...)
	}
	return out
}

// SetBytes replaces the durable bytes wholesale with a copy of b, in
// a segment of its own.  Tests use it to model torn writes and
// corruption; recovery tooling uses it to mount a salvaged log.
func (j *Journal) SetBytes(b []byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.segs, j.spare, j.size = [][]byte{append([]byte(nil), b...)}, nil, len(b)
}

// Size returns the current log length in bytes.
func (j *Journal) Size() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.size
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

// Replay decodes the journal's current contents, as Decode would
// decode Bytes().  Its payloads alias the journal's segments: they
// stay valid as records are appended, until the next Compact.
func (j *Journal) Replay() Replay {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.replay()
}

func (j *Journal) replay() Replay {
	var r Replay
	for i, s := range j.segs {
		if n := r.decode(s); n < len(s) {
			if i < len(j.segs)-1 {
				// Bytes SetBytes left mid-log: a frame may run on
				// into the next segment, so decode the log whole.
				return Decode(j.bytes())
			}
			r.Truncated = len(s) - n
		}
	}
	return r
}

// Intact replays the journal and cuts its torn tail off in place, so
// that the next record appended follows the last intact one.  Left in
// place, the tail would hide every later record from replay.
func (j *Journal) Intact() Replay {
	j.mu.Lock()
	defer j.mu.Unlock()
	r := j.replay()
	if r.Truncated == 0 {
		return r
	}
	keep := j.size - r.Truncated
	for i, s := range j.segs {
		if keep <= len(s) {
			j.segs[i] = s[:keep]
			clear(j.segs[i+1:])
			j.segs = j.segs[:i+1]
			break
		}
		keep -= len(s)
	}
	j.size -= r.Truncated
	return r
}

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
	r.Truncated = len(data) - r.decode(data)
	return r
}

// decode adds the records of data to r, up to the first frame that is
// not intact, and returns how many bytes they take.
func (r *Replay) decode(data []byte) int {
	off := 0
	for len(data)-off >= headerSize && data[off] == magic {
		kind := data[off+1]
		if kind != KindEntry && kind != KindSnapshot {
			break
		}
		n := int(binary.LittleEndian.Uint32(data[off+2 : off+6]))
		if n < 0 || len(data)-off-headerSize < n {
			break
		}
		payload := data[off+headerSize : off+headerSize+n]
		if checksum(kind, payload) != binary.LittleEndian.Uint32(data[off+6:off+10]) {
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
	return off
}
