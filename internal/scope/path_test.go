package scope

import (
	"errors"
	"testing"
)

func TestPathTracksWidening(t *testing.T) {
	transport := New(ScopeNetwork, "ConnectionLost", "reset").WithOrigin("tcp")
	rpc := transport.Widen(ScopeProcess, "RPCFailure")
	cluster := rpc.Widen(ScopeRemoteResource, "NodeFailure")

	hops := Path(cluster)
	if len(hops) != 3 {
		t.Fatalf("hops = %+v", hops)
	}
	if hops[0].Code != "NodeFailure" || hops[2].Code != "ConnectionLost" {
		t.Errorf("hops = %+v", hops)
	}
	if hops[2].Origin != "tcp" {
		t.Errorf("origin lost: %+v", hops[2])
	}
	if !WellFormed(cluster) {
		t.Error("widening chain should be well-formed")
	}
}

func TestPathSkipsPlainErrors(t *testing.T) {
	root := errors.New("plain")
	wrapped := Explicit(ScopeFile, "DiskFull", root)
	hops := Path(wrapped)
	if len(hops) != 1 {
		t.Fatalf("hops = %+v", hops)
	}
	if len(Path(root)) != 0 {
		t.Error("plain errors have no hops")
	}
	if !WellFormed(root) {
		t.Error("plain errors are vacuously well-formed")
	}
}

func TestWellFormedDetectsNarrowing(t *testing.T) {
	inner := New(ScopeJob, "CorruptProgramImageError", "x")
	// Manually construct a narrowing chain (the API prevents this;
	// only hand-built errors can narrow).
	outer := &Error{Scope: ScopeFile, Kind: KindExplicit, Code: "Oops", Cause: inner}
	if WellFormed(outer) {
		t.Error("narrowing chain should be rejected")
	}
}
