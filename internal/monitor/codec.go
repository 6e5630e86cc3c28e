package monitor

import (
	"fmt"
	"hash/crc32"
	"strconv"
	"strings"
	"sync"

	"github.com/errscope/grid/internal/obs"
)

// The monitor stream codec.  Every record that crosses the ops-plane
// boundary — a streamed obs event, a pool-metrics snapshot, a
// subscribe request, an admin verb and its acknowledgement — travels
// as a canonical one-line text record: fixed field order, Go-quoted
// strings, canonical integers, and a CRC-32 trailer over everything
// before it, exactly the discipline of the flock and checkpoint
// codecs.  Canonical means Parse(Encode(x)) == x and re-encoding any
// accepted line reproduces it byte for byte — the property the fuzz
// targets pin.  Nothing here prefix-guesses: a field out of order, a
// non-canonical spelling, or a CRC that does not hold is a parse
// error scoped at the network (the record is damaged, not the pool).
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
func EncodeEvent(ev obs.Event) string {
	buf := scratch.Get().(*[]byte)
	dst := append((*buf)[:0], "mev t="...)
	dst = strconv.AppendInt(dst, ev.T, 10)
	dst = appendStr(dst, "comp", ev.Comp)
	dst = appendStr(dst, "kind", ev.Kind)
	dst = append(dst, " job="...)
	dst = strconv.AppendInt(dst, ev.Job, 10)
	dst = appendStr(dst, "code", ev.Code)
	dst = appendStr(dst, "scope", ev.Scope)
	dst = appendStr(dst, "ekind", ev.EKind)
	dst = appendStr(dst, "detail", ev.Detail)
	dst = append(dst, " value="...)
	dst = strconv.AppendInt(dst, ev.Value, 10)
	dst = sealRecord(dst)
	line := string(dst)
	*buf = dst
	scratch.Put(buf)
	return line
}

// ParseEvent decodes one streamed event record, strictly.
func ParseEvent(s string) (obs.Event, error) {
	var ev obs.Event
	rest, ok := strings.CutPrefix(s, "mev ")
	if !ok {
		return ev, fmt.Errorf("monitor: not an event record: %q", s)
	}
	if err := checkCRC(s, &rest); err != nil {
		return ev, err
	}
	var err error
	if ev.T, err = cutInt(&rest, "t"); err != nil {
		return ev, err
	}
	if ev.Comp, err = cutStr(&rest, "comp"); err != nil {
		return ev, err
	}
	if ev.Kind, err = cutStr(&rest, "kind"); err != nil {
		return ev, err
	}
	if ev.Job, err = cutInt(&rest, "job"); err != nil {
		return ev, err
	}
	if ev.Code, err = cutStr(&rest, "code"); err != nil {
		return ev, err
	}
	if ev.Scope, err = cutStr(&rest, "scope"); err != nil {
		return ev, err
	}
	if ev.EKind, err = cutStr(&rest, "ekind"); err != nil {
		return ev, err
	}
	if ev.Detail, err = cutStr(&rest, "detail"); err != nil {
		return ev, err
	}
	if ev.Value, err = cutInt(&rest, "value"); err != nil {
		return ev, err
	}
	if rest != "" {
		return ev, fmt.Errorf("monitor: trailing bytes %q", rest)
	}
	return ev, nil
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
	dst := append(make([]byte, 0, 256), "mmet"...)
	for i, p := range m.fieldPtrs() {
		dst = append(dst, ' ')
		dst = append(dst, snapFields[i]...)
		dst = append(dst, '=')
		dst = strconv.AppendInt(dst, *p, 10)
	}
	return string(sealRecord(dst))
}

// ParseSnapshot decodes one pool-metrics record, strictly.
func ParseSnapshot(s string) (Snapshot, error) {
	var m Snapshot
	rest, ok := strings.CutPrefix(s, "mmet ")
	if !ok {
		return m, fmt.Errorf("monitor: not a metrics record: %q", s)
	}
	if err := checkCRC(s, &rest); err != nil {
		return m, err
	}
	for i, p := range m.fieldPtrs() {
		v, err := cutInt(&rest, snapFields[i])
		if err != nil {
			return m, err
		}
		*p = v
	}
	if rest != "" {
		return m, fmt.Errorf("monitor: trailing bytes %q", rest)
	}
	return m, nil
}

// EncodeSub renders a subscribe request: stream events from the given
// index (0 = full backlog).
func EncodeSub(from int64) string {
	dst := strconv.AppendInt([]byte("msub from="), from, 10)
	return string(sealRecord(dst))
}

// ParseSub decodes one subscribe request, strictly.
func ParseSub(s string) (int64, error) {
	rest, ok := strings.CutPrefix(s, "msub ")
	if !ok {
		return 0, fmt.Errorf("monitor: not a subscribe record: %q", s)
	}
	if err := checkCRC(s, &rest); err != nil {
		return 0, err
	}
	from, err := cutInt(&rest, "from")
	if err != nil {
		return 0, err
	}
	if rest != "" {
		return 0, fmt.Errorf("monitor: trailing bytes %q", rest)
	}
	if from < 0 {
		return 0, fmt.Errorf("monitor: negative subscribe index %d", from)
	}
	return from, nil
}

// EncodeAdmin renders an admin verb request.
func EncodeAdmin(verb, target string) string {
	dst := appendStr([]byte("madm"), "verb", verb)
	dst = appendStr(dst, "target", target)
	return string(sealRecord(dst))
}

// ParseAdmin decodes one admin verb request, strictly.
func ParseAdmin(s string) (verb, target string, err error) {
	rest, ok := strings.CutPrefix(s, "madm ")
	if !ok {
		return "", "", fmt.Errorf("monitor: not an admin record: %q", s)
	}
	if err := checkCRC(s, &rest); err != nil {
		return "", "", err
	}
	if verb, err = cutStr(&rest, "verb"); err != nil {
		return "", "", err
	}
	if target, err = cutStr(&rest, "target"); err != nil {
		return "", "", err
	}
	if rest != "" {
		return "", "", fmt.Errorf("monitor: trailing bytes %q", rest)
	}
	return verb, target, nil
}

// EncodeAdminOK renders the acknowledgement of a completed admin verb.
func EncodeAdminOK(verb, target, detail string) string {
	dst := appendStr([]byte("mok"), "verb", verb)
	dst = appendStr(dst, "target", target)
	dst = appendStr(dst, "detail", detail)
	return string(sealRecord(dst))
}

// ParseAdminOK decodes one admin acknowledgement, strictly.
func ParseAdminOK(s string) (verb, target, detail string, err error) {
	rest, ok := strings.CutPrefix(s, "mok ")
	if !ok {
		return "", "", "", fmt.Errorf("monitor: not an admin ack: %q", s)
	}
	if err := checkCRC(s, &rest); err != nil {
		return "", "", "", err
	}
	if verb, err = cutStr(&rest, "verb"); err != nil {
		return "", "", "", err
	}
	if target, err = cutStr(&rest, "target"); err != nil {
		return "", "", "", err
	}
	if detail, err = cutStr(&rest, "detail"); err != nil {
		return "", "", "", err
	}
	if rest != "" {
		return "", "", "", fmt.Errorf("monitor: trailing bytes %q", rest)
	}
	return verb, target, detail, nil
}

// --- codec internals -------------------------------------------------

// scratch lends out byte buffers for the two per-event operations —
// building a record and checksumming a received one — so that the
// first costs one allocation (the line) and the second none.  crc32's
// arch-specific update is an indirect call, so a buffer passed to it
// can never live on the stack.
var scratch = sync.Pool{New: func() any { return new([]byte) }}

// checksum is crc32.ChecksumIEEE([]byte(s)) without the allocation.
func checksum(s string) uint32 {
	buf := scratch.Get().(*[]byte)
	*buf = append((*buf)[:0], s...)
	sum := crc32.ChecksumIEEE(*buf)
	scratch.Put(buf)
	return sum
}

// plainASCII reports whether strconv.Quote would render v as the same
// bytes between two quotes: printable ASCII with nothing to escape.
// Almost every string the pool emits is; anything else takes strconv's
// slower path, on both the encode and the parse side.
func plainASCII(v string) bool {
	for i := 0; i < len(v); i++ {
		if c := v[i]; c < ' ' || c > '~' || c == '"' || c == '\\' {
			return false
		}
	}
	return true
}

// appendStr appends ` key="quoted"` to the record under construction.
func appendStr(dst []byte, key, v string) []byte {
	dst = append(dst, ' ')
	dst = append(dst, key...)
	dst = append(dst, '=')
	if !plainASCII(v) {
		return strconv.AppendQuote(dst, v)
	}
	dst = append(dst, '"')
	dst = append(dst, v...)
	return append(dst, '"')
}

const hexDigits = "0123456789abcdef"

// sealRecord appends the CRC trailer over the bytes built so far.
func sealRecord(dst []byte) []byte {
	sum := crc32.ChecksumIEEE(dst)
	dst = append(dst, " crc="...)
	for shift := 28; shift >= 0; shift -= 4 {
		dst = append(dst, hexDigits[sum>>shift&0xf])
	}
	return dst
}

// checkCRC validates the record's trailer against the bytes it covers
// and trims it (plus its leading space) off *rest.
func checkCRC(s string, rest *string) error {
	i := strings.LastIndex(*rest, " crc=")
	if i < 0 {
		return fmt.Errorf("monitor: record has no crc trailer: %q", s)
	}
	raw := (*rest)[i+len(" crc="):]
	if len(raw) != 8 {
		return fmt.Errorf("monitor: crc %q is not 8 hex digits", raw)
	}
	// Canonical hex only: eight lowercase digits, as sealRecord writes
	// them; uppercase would re-encode differently and break the round
	// trip.
	var sum uint32
	for j := 0; j < len(raw); j++ {
		d := strings.IndexByte(hexDigits, raw[j])
		if d < 0 {
			return fmt.Errorf("monitor: non-canonical crc=%q", raw)
		}
		sum = sum<<4 | uint32(d)
	}
	if got := checksum(s[:len(s)-len(" crc=")-8]); got != sum {
		return fmt.Errorf("monitor: crc mismatch: record says %08x, bytes say %08x", sum, got)
	}
	// The field cutters eat one optional space after every field, so
	// without this a space between the last field and the trailer
	// would parse and then re-encode differently.
	if i > 0 && (*rest)[i-1] == ' ' {
		return fmt.Errorf("monitor: space before the crc trailer: %q", s)
	}
	*rest = (*rest)[:i]
	return nil
}

// cutKey consumes "key=" from the front of r.
func cutKey(r, key string) (string, bool) {
	if len(r) <= len(key) || r[len(key)] != '=' || r[:len(key)] != key {
		return r, false
	}
	return r[len(key)+1:], true
}

// cutInt consumes "key=<int64>" (and the single space after it, when
// more fields follow) from the front of *rest.
func cutInt(rest *string, key string) (int64, error) {
	r, ok := cutKey(*rest, key)
	if !ok {
		return 0, fmt.Errorf("monitor: expected %s= at %q", key, *rest)
	}
	raw := r
	if j := strings.IndexByte(r, ' '); j >= 0 {
		raw, r = r[:j], r[j+1:]
	} else {
		r = ""
	}
	// Only the spelling FormatInt writes: "0", or an optional minus and
	// digits that start with 1-9.  ParseInt alone would also take "+2",
	// "007" and "-0", which re-encode differently.
	digits := strings.TrimPrefix(raw, "-")
	if raw != "0" && (digits == "" || digits[0] < '1' || digits[0] > '9') {
		return 0, fmt.Errorf("monitor: non-canonical %s=%q", key, raw)
	}
	v, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("monitor: field %s: %v", key, err)
	}
	*rest = r
	return v, nil
}

// cutStr consumes `key="quoted"` (and the single space after it, when
// more fields follow) from the front of *rest.  Only the canonical
// strconv.Quote spelling is accepted: a value that unquotes fine but
// would re-quote differently is rejected.
func cutStr(rest *string, key string) (string, error) {
	r, ok := cutKey(*rest, key)
	if !ok {
		return "", fmt.Errorf("monitor: expected %s= at %q", key, *rest)
	}
	var v string
	end := -1
	if strings.HasPrefix(r, `"`) {
		end = strings.IndexByte(r[1:], '"')
	}
	if end >= 0 && plainASCII(r[1:1+end]) {
		// The value is its own canonical quoting: a slice of the line.
		v, r = r[1:1+end], r[end+2:]
	} else {
		raw, err := strconv.QuotedPrefix(r)
		if err != nil {
			return "", fmt.Errorf("monitor: field %s: %v", key, err)
		}
		if v, err = strconv.Unquote(raw); err != nil {
			return "", fmt.Errorf("monitor: field %s: %v", key, err)
		}
		if raw != strconv.Quote(v) {
			return "", fmt.Errorf("monitor: non-canonical %s=%s", key, raw)
		}
		r = r[len(raw):]
	}
	if strings.HasPrefix(r, " ") {
		r = r[1:]
	} else if r != "" {
		return "", fmt.Errorf("monitor: expected space after %s at %q", key, r)
	}
	*rest = r
	return v, nil
}
