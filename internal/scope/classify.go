package scope

// javaScopes is the classification the Condor Java Universe wrapper
// uses, covering the exception families discussed in the paper.
// Program-generated exceptions stay at Program scope so the user sees
// them; environmental errors are widened to the scope of the resource
// they invalidate (Figures 3 and 4).
var javaScopes = map[string]Scope{
	// Program scope: genuine program results.  "Users wanted to see
	// program generated errors such as an
	// ArrayIndexOutOfBoundsException."
	"ArrayIndexOutOfBoundsException": ScopeProgram,
	"NullPointerException":           ScopeProgram,
	"ArithmeticException":            ScopeProgram,
	"ClassCastException":             ScopeProgram,
	"NumberFormatException":          ScopeProgram,
	"IllegalArgumentException":       ScopeProgram,
	"IllegalStateException":          ScopeProgram,
	"RuntimeException":               ScopeProgram,
	"FileNotFoundException":          ScopeProgram,
	"EOFException":                   ScopeProgram,
	"DiskFullException":              ScopeProgram,
	"AccessDeniedException":          ScopeProgram,

	// Virtual machine scope: the job cannot run in the current
	// conditions.  "...wanted to be shielded against incidental
	// errors such as a VirtualMachineError."
	"OutOfMemoryError":    ScopeVirtualMachine,
	"StackOverflowError":  ScopeVirtualMachine,
	"VirtualMachineError": ScopeVirtualMachine,
	"InternalError":       ScopeVirtualMachine,

	// Remote resource scope: the job cannot run on the given host.
	"MisconfiguredJVMError": ScopeRemoteResource,
	"NoClassDefFoundError":  ScopeRemoteResource, // standard libraries missing: bad install path
	"UnsatisfiedLinkError":  ScopeRemoteResource,
	"ScratchSpaceError":     ScopeRemoteResource,
	"ChirpProxyError":       ScopeRemoteResource,

	// Local resource scope: the job cannot run right now; the
	// submit-side environment is degraded.
	"ConnectionTimedOutException": ScopeLocalResource,
	"ShadowUnavailableError":      ScopeLocalResource,
	"CredentialsExpiredError":     ScopeLocalResource,
	"HomeFileSystemOfflineError":  ScopeLocalResource,

	// Job scope: the job itself can never run.
	"CorruptProgramImageError": ScopeJob,
	"ClassFormatError":         ScopeJob,
	"MissingInputFileError":    ScopeJob,
	"InvalidJobError":          ScopeJob,
}

// ClassifyJava returns the scope of a thrown Java exception or error,
// by name: how the program wrapper of Section 4 examines the type of
// a caught exception to decide the scope of the error it reports in
// the result file.  A code the table does not name is Program scope:
// an unknown exception thrown by the program is most likely the
// program's own.
func ClassifyJava(code string) Scope {
	if s, ok := javaScopes[code]; ok {
		return s
	}
	return ScopeProgram
}
