package scope

import "testing"

func TestJavaUniverseClassifier(t *testing.T) {
	cases := map[string]Scope{
		// Figure 4's execution details, by exception family.
		"NullPointerException":             ScopeProgram,
		"ArrayIndexOutOfBoundsException":   ScopeProgram,
		"OutOfMemoryError":                 ScopeVirtualMachine,
		"MisconfiguredJVMError":            ScopeRemoteResource,
		"NoClassDefFoundError":             ScopeRemoteResource,
		"ConnectionTimedOutException":      ScopeLocalResource,
		"HomeFileSystemOfflineError":       ScopeLocalResource,
		"CorruptProgramImageError":         ScopeJob,
		"ClassFormatError":                 ScopeJob,
		"SomeUserDefinedBusinessException": ScopeProgram, // fallback
	}
	for code, want := range cases {
		if got := ClassifyJava(code); got != want {
			t.Errorf("ClassifyJava(%s) = %v, want %v", code, got, want)
		}
	}
}

func TestJavaClassifierCoversEveryScopeTier(t *testing.T) {
	seen := map[Scope]bool{}
	for code, s := range javaScopes {
		if got := ClassifyJava(code); got != s {
			t.Errorf("ClassifyJava(%s) = %v, table says %v", code, got, s)
		}
		seen[s] = true
	}
	for _, s := range []Scope{ScopeProgram, ScopeVirtualMachine, ScopeRemoteResource, ScopeLocalResource, ScopeJob} {
		if !seen[s] {
			t.Errorf("classifier has no entry at %v scope", s)
		}
	}
}
