package record_test

import (
	"testing"
	"time"

	"github.com/errscope/grid/internal/daemon"
	"github.com/errscope/grid/internal/monitor"
	"github.com/errscope/grid/internal/obs"
)

// TestNoStrictPrefixParses is the wire grammar's truncation contract,
// over one record of every strict kind: a record cut anywhere in
// transit is an error, never a shorter record of the same kind.
func TestNoStrictPrefixParses(t *testing.T) {
	kinds := []struct {
		line  string
		parse func(string) error
	}{
		{daemon.EncodeFlockMsg(daemon.FlockMsg{Op: daemon.FlockGrant, Job: 12, Level: 2, Negotiator: "mm-p2"}),
			func(s string) error { _, err := daemon.ParseFlockMsg(s); return err }},
		{daemon.EncodeFlockMsg(daemon.FlockMsg{Op: daemon.FlockDeny, Job: 7, Reason: "no live \"peer\" pool"}),
			func(s string) error { _, err := daemon.ParseFlockMsg(s); return err }},
		{daemon.EncodeCheckpoint(12, 95*time.Minute),
			func(s string) error { _, _, err := daemon.ParseCheckpoint(s); return err }},
		{monitor.EncodeEvent(obs.Event{T: 60e9, Comp: "big", Kind: "error", Job: 10, Code: "Evicted", Detail: "owner\nback"}),
			func(s string) error { _, err := monitor.ParseEvent(s); return err }},
		{monitor.EncodeSnapshot(monitor.Snapshot{T: 360000, Jobs: 16, GoodputNS: 1 << 50, Lost: -3}),
			func(s string) error { _, err := monitor.ParseSnapshot(s); return err }},
		{monitor.EncodeSub(42),
			func(s string) error { _, err := monitor.ParseSub(s); return err }},
		{monitor.EncodeAdmin("drain", "machine \"q\""),
			func(s string) error { _, _, err := monitor.ParseAdmin(s); return err }},
		{monitor.EncodeAdminOK("drain", "big", "draining big"),
			func(s string) error { _, _, _, err := monitor.ParseAdminOK(s); return err }},
	}
	for _, k := range kinds {
		if err := k.parse(k.line); err != nil {
			t.Fatalf("%q: %v", k.line, err)
		}
		for cut := 0; cut < len(k.line); cut++ {
			if k.parse(k.line[:cut]) == nil {
				t.Errorf("the %d-byte prefix of %q parsed", cut, k.line)
			}
		}
	}
}
