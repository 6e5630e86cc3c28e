package monitor

import (
	"fmt"

	"github.com/errscope/grid/internal/obs"
	"github.com/errscope/grid/internal/record"
)

// The monitor stream codec.  Every record that crosses the ops-plane
// boundary — a streamed obs event, a pool-metrics snapshot, a
// subscribe request, an admin verb and its acknowledgement — travels
// as a canonical one-line text record in the strict grammar of package
// record, sealed by its CRC-32 trailer, exactly the discipline of the
// flock and checkpoint codecs.  Canonical means Parse(Encode(x)) == x
// and re-encoding any accepted line reproduces it byte for byte — the
// property the fuzz targets pin.  The trailer is checked before any
// field is read; a field out of order, a non-canonical spelling, or a
// CRC that does not hold is a parse error scoped at the network (the
// record is damaged, not the pool).
//
//	mev t=60000000000 comp="big" kind="state" job=1 code="evicted" scope="" ekind="" detail="" value=0 crc=1a2b3c4d
//	mmet t=60000000000 jobs=4 completed=2 ... lost=0 crc=9f43aa10
//	msub from=0 crc=c8d21f00
//	madm verb="drain" target="big" crc=00e1f2a3
//	mok verb="drain" target="big" detail="draining big" crc=7b61c2d9

// Stream command bytes (wire.ModeBinary / wire.ModeSecure), in the
// 0xC0 range so a monitor frame is distinguishable at a glance from
// session frames (0xE0), remoteio RPC (0xB0), and the shared
// wire.CmdOK/CmdErr replies.  The payload of each is the
// corresponding canonical record.
const (
	cmdSub     byte = 0xC0
	cmdEvent   byte = 0xC1
	cmdMetrics byte = 0xC2
	cmdAdmin   byte = 0xC3
)

// Snapshot is one streamed pool-metrics record: the counters an
// operator watches, stamped with the pool clock.  Durations travel as
// int64 nanoseconds, like every timestamp in package obs.
type Snapshot struct {
	T            int64
	Jobs         int64
	Completed    int64
	Unexecutable int64
	Held         int64
	Unfinished   int64
	Attempts     int64
	Evictions    int64
	Preemptions  int64
	Requeues     int64
	Recoveries   int64
	GoodputNS    int64
	BadputNS     int64
	Sent         int64
	Lost         int64
}

// EncodeEvent renders the canonical record of one streamed obs event.
// Every field is present, zero or not: a fixed shape parses strictly.
// It costs one allocation, the line.
func EncodeEvent(ev obs.Event) string {
	buf := record.Buffer()
	dst := record.AppendInt(append(*buf, "mev"...), "t", ev.T)
	dst = record.AppendStr(dst, "comp", ev.Comp)
	dst = record.AppendStr(dst, "kind", ev.Kind)
	dst = record.AppendInt(dst, "job", ev.Job)
	dst = record.AppendStr(dst, "code", ev.Code)
	dst = record.AppendStr(dst, "scope", ev.Scope)
	dst = record.AppendStr(dst, "ekind", ev.EKind)
	dst = record.AppendStr(dst, "detail", ev.Detail)
	return record.Seal(buf, record.AppendInt(dst, "value", ev.Value))
}

// ParseEvent decodes one streamed event record, strictly: the trailer
// first, then the fields.  String fields are slices of s: on a line
// with nothing escaped it allocates nothing.
func ParseEvent(s string) (obs.Event, error) {
	r := record.NewReader("monitor: ", s)
	r.Tag("mev", "an event record")
	r.Unseal()
	ev := obs.Event{T: r.Int("t"), Comp: r.Str("comp"), Kind: r.Str("kind"), Job: r.Int("job"),
		Code: r.Str("code"), Scope: r.Str("scope"), EKind: r.Str("ekind"), Detail: r.Str("detail"),
		Value: r.Int("value")}
	return ev, r.End()
}

// snapFields fixes the wire order of the snapshot record.
var snapFields = []string{"t", "jobs", "completed", "unexecutable", "held",
	"unfinished", "attempts", "evictions", "preemptions", "requeues",
	"recoveries", "goodput", "badput", "sent", "lost"}

func (m *Snapshot) fieldPtrs() []*int64 {
	return []*int64{&m.T, &m.Jobs, &m.Completed, &m.Unexecutable, &m.Held,
		&m.Unfinished, &m.Attempts, &m.Evictions, &m.Preemptions, &m.Requeues,
		&m.Recoveries, &m.GoodputNS, &m.BadputNS, &m.Sent, &m.Lost}
}

// EncodeSnapshot renders the canonical pool-metrics record.
func EncodeSnapshot(m Snapshot) string {
	buf := record.Buffer()
	dst := append(*buf, "mmet"...)
	for i, p := range m.fieldPtrs() {
		dst = record.AppendInt(dst, snapFields[i], *p)
	}
	return record.Seal(buf, dst)
}

// ParseSnapshot decodes one pool-metrics record, strictly.
func ParseSnapshot(s string) (Snapshot, error) {
	var m Snapshot
	r := record.NewReader("monitor: ", s)
	r.Tag("mmet", "a metrics record")
	r.Unseal()
	for i, p := range m.fieldPtrs() {
		*p = r.Int(snapFields[i])
	}
	return m, r.End()
}

// EncodeSub renders a subscribe request: stream events from the given
// index (0 = full backlog).
func EncodeSub(from int64) string {
	buf := record.Buffer()
	return record.Seal(buf, record.AppendInt(append(*buf, "msub"...), "from", from))
}

// ParseSub decodes one subscribe request, strictly.
func ParseSub(s string) (int64, error) {
	r := record.NewReader("monitor: ", s)
	r.Tag("msub", "a subscribe record")
	r.Unseal()
	from := r.Int("from")
	if err := r.End(); err != nil {
		return 0, err
	}
	if from < 0 {
		return 0, fmt.Errorf("monitor: negative subscribe index %d", from)
	}
	return from, nil
}

// EncodeAdmin renders an admin verb request.
func EncodeAdmin(verb, target string) string {
	buf := record.Buffer()
	dst := record.AppendStr(append(*buf, "madm"...), "verb", verb)
	return record.Seal(buf, record.AppendStr(dst, "target", target))
}

// ParseAdmin decodes one admin verb request, strictly.
func ParseAdmin(s string) (verb, target string, err error) {
	r := record.NewReader("monitor: ", s)
	r.Tag("madm", "an admin record")
	r.Unseal()
	verb, target = r.Str("verb"), r.Str("target")
	return verb, target, r.End()
}

// EncodeAdminOK renders the acknowledgement of a completed admin verb.
func EncodeAdminOK(verb, target, detail string) string {
	buf := record.Buffer()
	dst := record.AppendStr(append(*buf, "mok"...), "verb", verb)
	dst = record.AppendStr(dst, "target", target)
	return record.Seal(buf, record.AppendStr(dst, "detail", detail))
}

// ParseAdminOK decodes one admin acknowledgement, strictly.
func ParseAdminOK(s string) (verb, target, detail string, err error) {
	r := record.NewReader("monitor: ", s)
	r.Tag("mok", "an admin ack")
	r.Unseal()
	verb, target, detail = r.Str("verb"), r.Str("target"), r.Str("detail")
	return verb, target, detail, r.End()
}
