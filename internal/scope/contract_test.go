package scope

import (
	"errors"
	"testing"
)

// fileWriterContract models the paper's revised FileWriter interface:
//
//	FileWriter(File f) throws FileNotFound, AccessDenied;
//	void write(int)    throws DiskFull;
func fileWriterOpenContract() *Contract {
	return NewContract("FileWriter.open", ScopeProcess, "EnvironmentError").
		Declare("FileNotFound", ScopeFile).
		Declare("AccessDenied", ScopeFile)
}

func fileWriterWriteContract() *Contract {
	return NewContract("FileWriter.write", ScopeProcess, "EnvironmentError").
		Declare("DiskFull", ScopeFile)
}

func TestContractAdmitsDeclared(t *testing.T) {
	c := fileWriterOpenContract()
	err := New(ScopeFile, "FileNotFound", "nope")
	got := c.Apply(err)
	se, ok := AsError(got)
	if !ok || se.Kind != KindExplicit || se.Code != "FileNotFound" {
		t.Fatalf("Apply(FileNotFound) = %v", got)
	}
}

func TestContractNil(t *testing.T) {
	if got := fileWriterOpenContract().Apply(nil); got != nil {
		t.Errorf("Apply(nil) = %v", got)
	}
}

func TestContractRescopesAdmittedCode(t *testing.T) {
	// A lower layer reports DiskFull at function scope; the contract
	// says DiskFull is file scope at this interface.
	c := fileWriterWriteContract()
	err := New(ScopeFunction, "DiskFull", "0 bytes left")
	got := c.Apply(err)
	se, _ := AsError(got)
	if se.Scope != ScopeFile {
		t.Errorf("contract should re-scope DiskFull to file scope, got %v", se.Scope)
	}
	if !errors.Is(got, err) {
		t.Error("re-scoped error should wrap the original")
	}
}

func TestContractEscapesForeignExplicit(t *testing.T) {
	// "Would it be reasonable for an implementation of write to throw
	// a FileNotFound?  Of course not!" — it must escape instead.
	c := fileWriterWriteContract()
	err := New(ScopeFile, "FileNotFound", "file vanished mid-write")
	got := c.Apply(err)
	se, _ := AsError(got)
	if se.Kind != KindEscaping {
		t.Fatalf("foreign explicit error should escape, got kind %v", se.Kind)
	}
	if se.Code != "EnvironmentError" {
		t.Errorf("escape code = %q", se.Code)
	}
	if se.Scope != ScopeProcess {
		t.Errorf("escape scope = %v", se.Scope)
	}
	if !errors.Is(got, err) {
		t.Error("escape should preserve the cause")
	}
}

func TestContractEscapesPlainError(t *testing.T) {
	c := fileWriterWriteContract()
	got := c.Apply(errors.New("credentials expired"))
	se, _ := AsError(got)
	if se.Kind != KindEscaping || se.Code != "EnvironmentError" {
		t.Errorf("Apply(plain) = %+v", se)
	}
}

func TestContractKeepsEscapingInFlight(t *testing.T) {
	// An escaping error passing through an interface stays escaping
	// and keeps (at least) its scope.
	c := fileWriterWriteContract()
	inner := Escape(ScopeLocalResource, "ConnectionTimedOutException", errors.New("timeout"))
	got := c.Apply(inner)
	se, _ := AsError(got)
	if se.Kind != KindEscaping {
		t.Fatalf("kind = %v", se.Kind)
	}
	if !se.Scope.Contains(ScopeLocalResource) {
		t.Errorf("escape lost scope: %v", se.Scope)
	}
}

func TestContractEmptyEscapeCodeKeepsOriginal(t *testing.T) {
	c := NewContract("x", ScopeProcess, "")
	err := New(ScopeFile, "Weird", "?")
	got := c.Apply(err)
	se, _ := AsError(got)
	if se.Code != "Weird" {
		t.Errorf("code = %q, want Weird", se.Code)
	}
	got2 := c.Apply(errors.New("anon"))
	se2, _ := AsError(got2)
	if se2.Code != "EscapingError" {
		t.Errorf("code = %q, want EscapingError", se2.Code)
	}
}

func TestContractDeclareConflictPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("conflicting Declare should panic")
		}
	}()
	NewContract("x", ScopeProcess, "E").
		Declare("DiskFull", ScopeFile).
		Declare("DiskFull", ScopeJob)
}

func TestContractDeclareIdempotent(t *testing.T) {
	c := NewContract("x", ScopeProcess, "E").
		Declare("DiskFull", ScopeFile).
		Declare("DiskFull", ScopeFile)
	if s, ok := c.Admits("DiskFull"); !ok || s != ScopeFile {
		t.Errorf("Admits = %v, %v", s, ok)
	}
}

func TestContractZeroValueAdmitsNothing(t *testing.T) {
	var c Contract
	if _, ok := c.Admits("anything"); ok {
		t.Error("zero contract should admit nothing")
	}
	got := c.Apply(New(ScopeFile, "X", "x"))
	se, _ := AsError(got)
	if se.Kind != KindEscaping {
		t.Error("zero contract should escape everything")
	}
}

func TestViolations(t *testing.T) {
	c := fileWriterWriteContract()
	if v := c.Violations(nil); v != "" {
		t.Errorf("nil: %q", v)
	}
	if v := c.Violations(New(ScopeFile, "DiskFull", "")); v != "" {
		t.Errorf("conforming: %q", v)
	}
	if v := c.Violations(New(ScopeFile, "FileNotFound", "")); v == "" {
		t.Error("foreign explicit should violate (Principle 4)")
	}
	imp := &Error{Scope: ScopeFile, Kind: KindImplicit, Code: "SilentGarbage"}
	if v := c.Violations(imp); v == "" {
		t.Error("implicit should violate (Principle 1)")
	}
	esc := Escape(ScopeProcess, "E", errors.New("x"))
	if v := c.Violations(esc); v != "" {
		t.Errorf("escaping should pass any interface: %q", v)
	}
	if v := c.Violations(errors.New("plain")); v == "" {
		t.Error("unscoped errors cannot conform")
	}
}
