package scope

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestResultRoundTrip(t *testing.T) {
	cases := []Result{
		{Status: StatusExited, ExitCode: 0},
		{Status: StatusExited, ExitCode: 42},
		{Status: StatusException, Exception: "NullPointerException", Scope: ScopeProgram, Message: "at Main.java:17"},
		{Status: StatusEscape, Exception: "OutOfMemoryError", Scope: ScopeVirtualMachine, Message: "heap 64MB < request 128MB"},
		{Status: StatusEscape, Exception: "MisconfiguredJVMError", Scope: ScopeRemoteResource, Message: `bad path "C:\jvm"` + "\nwith newline"},
		{Status: StatusNoResult},
	}
	for _, r := range cases {
		enc := r.EncodeString()
		got, err := DecodeResultString(enc)
		if err != nil {
			t.Fatalf("decode %q: %v", enc, err)
		}
		if !reflect.DeepEqual(got, r) {
			t.Errorf("round trip:\n in: %+v\nenc: %q\nout: %+v", r, enc, got)
		}
	}
}

func TestResultRoundTripProperty(t *testing.T) {
	statuses := []ResultStatus{StatusExited, StatusException, StatusEscape, StatusNoResult}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := Result{
			Status:   statuses[rng.Intn(len(statuses))],
			ExitCode: rng.Intn(256),
		}
		if rng.Intn(2) == 0 {
			r.Exception = "E" + strings.Repeat("x", rng.Intn(5))
			r.Scope = Scopes()[rng.Intn(len(Scopes()))]
			// Random printable-ish message including tricky chars.
			chars := []rune("abc \t\n\"=#\\日本")
			var sb strings.Builder
			for i := 0; i < rng.Intn(20); i++ {
				sb.WriteRune(chars[rng.Intn(len(chars))])
			}
			r.Message = sb.String()
		}
		got, err := DecodeResultString(r.EncodeString())
		return err == nil && reflect.DeepEqual(got, r)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDecodeTolerance(t *testing.T) {
	in := "# a comment\n\nstatus = exited\nexit_code = 3\nfuture_key = whatever\nend = ok\n"
	r, err := DecodeResultString(in)
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != StatusExited || r.ExitCode != 3 {
		t.Errorf("got %+v", r)
	}
}

func TestDecodeUnquotedMessage(t *testing.T) {
	r, err := DecodeResultString("status = escape\nexception = X\nscope = job\nmessage = plain words\nend = ok\n")
	if err != nil {
		t.Fatal(err)
	}
	if r.Message != "plain words" {
		t.Errorf("message = %q", r.Message)
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []string{
		"",                               // missing status
		"exit_code = 1\n",                // missing status
		"status = bogus\n",               // bad status
		"status exited\n",                // no '='
		"status = exited\nexit_code=x\n", // bad exit code
		"status = exited\nscope = mars\n",
		"status = exited\n",               // truncated: no end marker
		"status = exited\nexit_code = 0",  // truncated mid-record
		"status = exited\nend = maybe\n",  // corrupt end marker
		"end = ok\n",                      // marker but no status
		"status = exception\nexception =", // crashed mid-write
	}
	for _, in := range cases {
		r, err := DecodeResultString(in)
		if err == nil {
			t.Errorf("DecodeResultString(%q) should fail", in)
		}
		if r.Status != StatusNoResult {
			t.Errorf("DecodeResultString(%q) failure result = %+v, want StatusNoResult", in, r)
		}
	}
}

// TestDecodeTruncation is the regression for the misattribution bug:
// every proper prefix of a valid result file must fail to decode, and
// the failure must read as the execution environment's error
// (remote-resource scope via StatusNoResult), never as a program
// result charged to the job.
func TestDecodeTruncation(t *testing.T) {
	full := []Result{
		{Status: StatusExited, ExitCode: 0},
		{Status: StatusExited, ExitCode: 7},
		{Status: StatusException, Exception: "NullPointerException", Scope: ScopeProgram, Message: "at Main.java:3"},
		{Status: StatusEscape, Exception: "OutOfMemoryError", Scope: ScopeVirtualMachine, Message: "heap"},
	}
	for _, res := range full {
		enc := res.EncodeString()
		// The last cut position is excluded: losing only the final
		// newline leaves the end marker itself complete, and the
		// record is in fact intact.
		for cut := 0; cut < len(enc)-1; cut++ {
			r, err := DecodeResultString(enc[:cut])
			if err == nil {
				t.Fatalf("prefix %q of %q decoded without error", enc[:cut], enc)
			}
			ferr := r.Err()
			if ScopeOf(ferr) < ScopeRemoteResource || KindOf(ferr) != KindEscaping {
				t.Fatalf("prefix %q: failure error %v not an escaping remote-resource error", enc[:cut], ferr)
			}
		}
	}
}

// TestDecodeDebrisAfterMarker: a sealed record followed by a later,
// interrupted rewrite still reads as the sealed record.
func TestDecodeDebrisAfterMarker(t *testing.T) {
	r, err := DecodeResultString("status = exited\nexit_code = 4\nend = ok\nstatus = exce")
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != StatusExited || r.ExitCode != 4 {
		t.Errorf("got %+v", r)
	}
}

func TestResultErr(t *testing.T) {
	if err := (&Result{Status: StatusExited}).Err(); err != nil {
		t.Errorf("clean exit: %v", err)
	}

	err := (&Result{Status: StatusExited, ExitCode: 5}).Err()
	se, _ := AsError(err)
	if se.Scope != ScopeProgram || se.Code != "NonZeroExit" {
		t.Errorf("nonzero exit: %+v", se)
	}

	err = (&Result{Status: StatusException, Exception: "NullPointerException"}).Err()
	se, _ = AsError(err)
	if se.Scope != ScopeProgram || se.Kind != KindExplicit {
		t.Errorf("exception: %+v", se)
	}

	err = (&Result{Status: StatusEscape, Exception: "OutOfMemoryError", Scope: ScopeVirtualMachine}).Err()
	se, _ = AsError(err)
	if se.Scope != ScopeVirtualMachine || se.Kind != KindEscaping {
		t.Errorf("escape: %+v", se)
	}

	err = (&Result{Status: StatusNoResult}).Err()
	se, _ = AsError(err)
	if se.Scope != ScopeRemoteResource || se.Kind != KindEscaping {
		t.Errorf("no result: %+v", se)
	}

	// An escape record carrying no usable scope is attributed to the
	// execution environment, not defaulted narrower.
	err = (&Result{Status: StatusEscape, Exception: "X"}).Err()
	se, _ = AsError(err)
	if se.Scope != ScopeRemoteResource || se.Kind != KindEscaping {
		t.Errorf("scopeless escape: %+v", se)
	}
}

func TestResultStatusString(t *testing.T) {
	if got := ResultStatus(42).String(); got != "status(42)" {
		t.Errorf("got %q", got)
	}
	if _, err := ParseResultStatus("nope"); err == nil {
		t.Error("ParseResultStatus(nope) should fail")
	}
}
