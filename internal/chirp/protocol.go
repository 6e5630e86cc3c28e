// Package chirp implements the Chirp protocol of the Condor Java
// Universe (Figure 2 of the paper): a simple remote I/O protocol
// spoken between the job's I/O library and a proxy inside the starter,
// over a TCP connection on the loopback interface.
//
// The library authenticates itself by presenting a shared secret (the
// "cookie") revealed to it through the local file system, so the
// connection is secure to the same degree as the local system.
//
// The wire format is line-oriented.  Requests are a verb with
// space-separated arguments terminated by '\n'; bulk data follows a
// length argument.  Responses are either
//
//	ok [value]\n [data]
//	error <code> <scope> <quoted message>\n
//
// Note that the error response carries the error's *scope* across the
// process boundary.  This is the paper's central mechanism: the two
// sides cooperate by knowing the scope, rather than the detail, of the
// errors they communicate (Section 7).
//
// The protocol's explicit error interface is concise and finite
// (Principle 4); any condition outside it — a lost connection,
// protocol garbage — is surfaced by the client as an *escaping* error
// of network scope (Principle 2).
package chirp

import (
	"fmt"
	"strings"

	"github.com/errscope/grid/internal/scope"
)

// Explicit error codes of the Chirp interface (Principle 4: concise
// and finite).
const (
	CodeFileNotFound = "FileNotFound"
	CodeAccessDenied = "AccessDenied"
	CodeDiskFull     = "DiskFull"
	CodeEndOfFile    = "EndOfFile"
	CodeBadFD        = "BadFileDescriptor"
	CodeBadRequest   = "BadRequest"
	CodeNotAuthed    = "NotAuthenticated"
	CodeBackend      = "BackendError"
)

// Escaping error codes produced by the client for conditions outside
// the protocol's explicit interface.
const (
	CodeConnectionLost = "ConnectionLost"
	CodeProtocolError  = "ProtocolError"
	// CodeRequestTimeout marks a request whose I/O deadline expired:
	// the connection may be healthy or hung, the client cannot tell,
	// so the condition escapes with network scope like any other
	// transport failure.
	CodeRequestTimeout = "RequestTimeout"
)

// Binary protocol command bytes (wire.ModeBinary / wire.ModeSecure).
// All are >= 0x80, which is how a server distinguishes a binary
// client's first frame from a text client's first line.  Responses use
// the shared wire.CmdOK / wire.CmdErr frames.
const (
	binOpen   byte = 0x90 // flags u8, path rest        -> fd u32
	binClose  byte = 0x91 // fd u32
	binRead   byte = 0x92 // fd u32, len u32            -> data
	binPRead  byte = 0x93 // fd u32, len u32, off i64   -> data
	binWrite  byte = 0x94 // fd u32, data rest          -> n u32
	binPWrite byte = 0x95 // fd u32, off i64, data rest -> n u32
	binSeek   byte = 0x96 // fd u32, whence u8, off i64 -> pos i64
	binUnlink byte = 0x97 // path rest
	binRename byte = 0x98 // old str, new rest
	binStat   byte = 0x99 // path rest -> size i64, ro u8, path rest
	binGetdir byte = 0x9A // prefix rest -> count u32, then per entry
	//                       size i64, ro u8, path str
	binQuit byte = 0x9F
)

// Contract returns the explicit error interface of the Chirp protocol.
// Errors outside it escape with network scope.
func Contract() *scope.Contract {
	return scope.NewContract("chirp", scope.ScopeNetwork, CodeProtocolError).
		Declare(CodeFileNotFound, scope.ScopeFile).
		Declare(CodeAccessDenied, scope.ScopeFile).
		Declare(CodeDiskFull, scope.ScopeFile).
		Declare(CodeEndOfFile, scope.ScopeFile).
		Declare(CodeBadFD, scope.ScopeFunction).
		Declare(CodeBadRequest, scope.ScopeFunction).
		Declare(CodeNotAuthed, scope.ScopeProcess).
		Declare(CodeBackend, scope.ScopeLocalResource)
}

// OpenFlags select the access mode of an open request.
type OpenFlags int

// Open flag bits.
const (
	FlagRead OpenFlags = 1 << iota
	FlagWrite
	FlagCreate
	FlagTruncate
	FlagAppend
)

// String renders flags in the wire encoding: a subset of "rwcta".
func (f OpenFlags) String() string {
	var sb strings.Builder
	if f&FlagRead != 0 {
		sb.WriteByte('r')
	}
	if f&FlagWrite != 0 {
		sb.WriteByte('w')
	}
	if f&FlagCreate != 0 {
		sb.WriteByte('c')
	}
	if f&FlagTruncate != 0 {
		sb.WriteByte('t')
	}
	if f&FlagAppend != 0 {
		sb.WriteByte('a')
	}
	if sb.Len() == 0 {
		return "-"
	}
	return sb.String()
}

// ParseOpenFlags parses the wire encoding of open flags.
func ParseOpenFlags(s string) (OpenFlags, error) {
	var f OpenFlags
	if s == "-" {
		return 0, nil
	}
	for _, c := range s {
		switch c {
		case 'r':
			f |= FlagRead
		case 'w':
			f |= FlagWrite
		case 'c':
			f |= FlagCreate
		case 't':
			f |= FlagTruncate
		case 'a':
			f |= FlagAppend
		default:
			return 0, fmt.Errorf("chirp: bad open flag %q", c)
		}
	}
	return f, nil
}

// Whence values for lseek, as in POSIX.
const (
	SeekSet = 0
	SeekCur = 1
	SeekEnd = 2
)
