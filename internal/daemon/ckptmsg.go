package daemon

import (
	"fmt"
	"time"

	"github.com/errscope/grid/internal/record"
	"github.com/errscope/grid/internal/scope"
)

// The checkpoint codec.  A checkpoint crosses the pool boundary — it
// leaves the execution machine and must survive that machine's death —
// so, like the flock codec, it travels as a canonical text record
// rather than a process-local struct: one line in the strict grammar
// of package record, sealed by its CRC-32 trailer.  Canonical means
// ParseCheckpoint(EncodeCheckpoint(j, c)) == (j, c) and re-encoding
// any accepted line reproduces it byte for byte, the property the fuzz
// test pins.  A corrupted or truncated line is a parse error the
// shadow scopes as a network failure — the checkpoint is damaged, not
// the job, and the previous committed checkpoint still stands.
//
//	ckpt job=7 cpu=1800000000000 crc=9f43aa10

// EncodeCheckpoint renders the canonical one-line checkpoint record
// for a job's accumulated CPU progress.
func EncodeCheckpoint(job JobID, cpu time.Duration) string {
	buf := record.Buffer()
	b := record.AppendInt(append(*buf, "ckpt"...), "job", int64(job))
	return record.Seal(buf, record.AppendInt(b, "cpu", int64(cpu)))
}

// ParseCheckpoint decodes one checkpoint record, strictly: exact field
// order, single spaces, canonical integers, and a CRC that matches the
// bytes it covers.  Anything else — above all, a payload damaged in
// transit — is an error.  The fields are read before the trailer is
// checked, so a byte flipped inside a number reports as that field's
// error (the corrupt-checkpoint golden trace pins the text).
func ParseCheckpoint(s string) (JobID, time.Duration, error) {
	r := record.NewReader("ckpt: ", s)
	r.Tag("ckpt", "a checkpoint record")
	job, cpu := r.Int("job"), r.Int("cpu")
	r.Unseal()
	if err := r.End(); err != nil {
		return 0, 0, err
	}
	if job < 0 {
		return 0, 0, fmt.Errorf("ckpt: negative job %d", job)
	}
	if cpu < 0 {
		return 0, 0, fmt.Errorf("ckpt: negative cpu %d", cpu)
	}
	return JobID(job), time.Duration(cpu), nil
}

// ckptCorruptErr scopes a damaged checkpoint record: the network
// delivered bytes whose CRC does not hold, so the loss is the
// record's, not the job's — the shadow keeps the previous committed
// checkpoint and waits for the next one.
func ckptCorruptErr(cause error) *scope.Error {
	e := scope.New(scope.ScopeNetwork, "CheckpointCorrupt",
		"checkpoint did not survive transit: %v", cause)
	e.Kind = scope.KindEscaping
	return e
}

// CorruptCheckpoint returns the body with one byte of its checkpoint
// payload flipped (the byte at index n modulo the payload length), for
// fault injection; non-checkpoint bodies pass through unchanged.
// Exported so the fault injector can damage the payload without
// knowing the daemon's message types.
func CorruptCheckpoint(body any, n int) any {
	m, ok := body.(checkpointMsg)
	if !ok || len(m.Payload) == 0 {
		return body
	}
	if n < 0 {
		n = -n
	}
	b := []byte(m.Payload)
	b[n%len(b)] ^= 0x20
	m.Payload = string(b)
	return m
}
