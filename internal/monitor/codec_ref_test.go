package monitor

import (
	"fmt"
	"hash/crc32"
	"strconv"
	"strings"

	"github.com/errscope/grid/internal/obs"
)

// The reference codec: the strings.Builder / strconv.Quote /
// fmt.Sprintf implementation the lean codec in codec.go replaced,
// kept verbatim as the oracle the differential fuzz targets and the
// table tests compare against.  It defines which byte strings are
// records: the lean codec must accept, reject, decode and encode
// exactly as this does.

func refEncodeEvent(ev obs.Event) string {
	var sb strings.Builder
	sb.WriteString("mev t=")
	sb.WriteString(strconv.FormatInt(ev.T, 10))
	refAppendStr(&sb, "comp", ev.Comp)
	refAppendStr(&sb, "kind", ev.Kind)
	sb.WriteString(" job=")
	sb.WriteString(strconv.FormatInt(ev.Job, 10))
	refAppendStr(&sb, "code", ev.Code)
	refAppendStr(&sb, "scope", ev.Scope)
	refAppendStr(&sb, "ekind", ev.EKind)
	refAppendStr(&sb, "detail", ev.Detail)
	sb.WriteString(" value=")
	sb.WriteString(strconv.FormatInt(ev.Value, 10))
	return refSealRecord(&sb)
}

func refParseEvent(s string) (obs.Event, error) {
	var ev obs.Event
	rest, ok := strings.CutPrefix(s, "mev ")
	if !ok {
		return ev, fmt.Errorf("monitor: not an event record: %q", s)
	}
	if err := refCheckCRC(s, &rest); err != nil {
		return ev, err
	}
	var err error
	if ev.T, err = refCutInt(&rest, "t"); err != nil {
		return ev, err
	}
	if ev.Comp, err = refCutStr(&rest, "comp"); err != nil {
		return ev, err
	}
	if ev.Kind, err = refCutStr(&rest, "kind"); err != nil {
		return ev, err
	}
	if ev.Job, err = refCutInt(&rest, "job"); err != nil {
		return ev, err
	}
	if ev.Code, err = refCutStr(&rest, "code"); err != nil {
		return ev, err
	}
	if ev.Scope, err = refCutStr(&rest, "scope"); err != nil {
		return ev, err
	}
	if ev.EKind, err = refCutStr(&rest, "ekind"); err != nil {
		return ev, err
	}
	if ev.Detail, err = refCutStr(&rest, "detail"); err != nil {
		return ev, err
	}
	if ev.Value, err = refCutInt(&rest, "value"); err != nil {
		return ev, err
	}
	if rest != "" {
		return ev, fmt.Errorf("monitor: trailing bytes %q", rest)
	}
	return ev, nil
}

func refEncodeSnapshot(m Snapshot) string {
	var sb strings.Builder
	sb.WriteString("mmet")
	for i, p := range m.fieldPtrs() {
		sb.WriteByte(' ')
		sb.WriteString(snapFields[i])
		sb.WriteByte('=')
		sb.WriteString(strconv.FormatInt(*p, 10))
	}
	return refSealRecord(&sb)
}

func refParseSnapshot(s string) (Snapshot, error) {
	var m Snapshot
	rest, ok := strings.CutPrefix(s, "mmet ")
	if !ok {
		return m, fmt.Errorf("monitor: not a metrics record: %q", s)
	}
	if err := refCheckCRC(s, &rest); err != nil {
		return m, err
	}
	for i, p := range m.fieldPtrs() {
		v, err := refCutInt(&rest, snapFields[i])
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

func refEncodeSub(from int64) string {
	var sb strings.Builder
	sb.WriteString("msub from=")
	sb.WriteString(strconv.FormatInt(from, 10))
	return refSealRecord(&sb)
}

func refParseSub(s string) (int64, error) {
	rest, ok := strings.CutPrefix(s, "msub ")
	if !ok {
		return 0, fmt.Errorf("monitor: not a subscribe record: %q", s)
	}
	if err := refCheckCRC(s, &rest); err != nil {
		return 0, err
	}
	from, err := refCutInt(&rest, "from")
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

func refEncodeAdmin(verb, target string) string {
	var sb strings.Builder
	sb.WriteString("madm")
	refAppendStr(&sb, "verb", verb)
	refAppendStr(&sb, "target", target)
	return refSealRecord(&sb)
}

func refParseAdmin(s string) (verb, target string, err error) {
	rest, ok := strings.CutPrefix(s, "madm ")
	if !ok {
		return "", "", fmt.Errorf("monitor: not an admin record: %q", s)
	}
	if err := refCheckCRC(s, &rest); err != nil {
		return "", "", err
	}
	if verb, err = refCutStr(&rest, "verb"); err != nil {
		return "", "", err
	}
	if target, err = refCutStr(&rest, "target"); err != nil {
		return "", "", err
	}
	if rest != "" {
		return "", "", fmt.Errorf("monitor: trailing bytes %q", rest)
	}
	return verb, target, nil
}

func refEncodeAdminOK(verb, target, detail string) string {
	var sb strings.Builder
	sb.WriteString("mok")
	refAppendStr(&sb, "verb", verb)
	refAppendStr(&sb, "target", target)
	refAppendStr(&sb, "detail", detail)
	return refSealRecord(&sb)
}

func refParseAdminOK(s string) (verb, target, detail string, err error) {
	rest, ok := strings.CutPrefix(s, "mok ")
	if !ok {
		return "", "", "", fmt.Errorf("monitor: not an admin ack: %q", s)
	}
	if err := refCheckCRC(s, &rest); err != nil {
		return "", "", "", err
	}
	if verb, err = refCutStr(&rest, "verb"); err != nil {
		return "", "", "", err
	}
	if target, err = refCutStr(&rest, "target"); err != nil {
		return "", "", "", err
	}
	if detail, err = refCutStr(&rest, "detail"); err != nil {
		return "", "", "", err
	}
	if rest != "" {
		return "", "", "", fmt.Errorf("monitor: trailing bytes %q", rest)
	}
	return verb, target, detail, nil
}

func refAppendStr(sb *strings.Builder, key, v string) {
	sb.WriteByte(' ')
	sb.WriteString(key)
	sb.WriteByte('=')
	sb.WriteString(strconv.Quote(v))
}

func refSealRecord(sb *strings.Builder) string {
	sum := crc32.ChecksumIEEE([]byte(sb.String()))
	fmt.Fprintf(sb, " crc=%08x", sum)
	return sb.String()
}

func refCheckCRC(s string, rest *string) error {
	i := strings.LastIndex(*rest, " crc=")
	if i < 0 {
		return fmt.Errorf("monitor: record has no crc trailer: %q", s)
	}
	raw := (*rest)[i+len(" crc="):]
	if len(raw) != 8 {
		return fmt.Errorf("monitor: crc %q is not 8 hex digits", raw)
	}
	sum, err := strconv.ParseUint(raw, 16, 32)
	if err != nil {
		return fmt.Errorf("monitor: field crc: %v", err)
	}
	// Canonical hex only: ParseUint accepts uppercase, which would
	// re-encode differently and break the round trip.
	if raw != fmt.Sprintf("%08x", uint32(sum)) {
		return fmt.Errorf("monitor: non-canonical crc=%q", raw)
	}
	covered := s[:len(s)-len(" crc=")-8]
	if got := crc32.ChecksumIEEE([]byte(covered)); got != uint32(sum) {
		return fmt.Errorf("monitor: crc mismatch: record says %08x, bytes say %08x",
			uint32(sum), got)
	}
	*rest = (*rest)[:i]
	return nil
}

func refCutInt(rest *string, key string) (int64, error) {
	r, ok := strings.CutPrefix(*rest, key+"=")
	if !ok {
		return 0, fmt.Errorf("monitor: expected %s= at %q", key, *rest)
	}
	raw := r
	if j := strings.IndexByte(r, ' '); j >= 0 {
		raw, r = r[:j], r[j+1:]
	} else {
		r = ""
	}
	v, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("monitor: field %s: %v", key, err)
	}
	// Reject non-canonical spellings ("+2", "007") that ParseInt
	// accepts: they would re-encode differently.
	if raw != strconv.FormatInt(v, 10) {
		return 0, fmt.Errorf("monitor: non-canonical %s=%q", key, raw)
	}
	*rest = r
	return v, nil
}

func refCutStr(rest *string, key string) (string, error) {
	r, ok := strings.CutPrefix(*rest, key+"=")
	if !ok {
		return "", fmt.Errorf("monitor: expected %s= at %q", key, *rest)
	}
	raw, err := strconv.QuotedPrefix(r)
	if err != nil {
		return "", fmt.Errorf("monitor: field %s: %v", key, err)
	}
	v, err := strconv.Unquote(raw)
	if err != nil {
		return "", fmt.Errorf("monitor: field %s: %v", key, err)
	}
	if raw != strconv.Quote(v) {
		return "", fmt.Errorf("monitor: non-canonical %s=%s", key, raw)
	}
	r = r[len(raw):]
	if strings.HasPrefix(r, " ") {
		r = r[1:]
	} else if r != "" {
		return "", fmt.Errorf("monitor: expected space after %s at %q", key, r)
	}
	*rest = r
	return v, nil
}
