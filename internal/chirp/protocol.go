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
	"github.com/errscope/grid/internal/rpc"
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

// binQuit ends a framed session.  Every opcode is >= 0x80, which is
// how the server tells a framed client's first frame from a text
// client's first line; replies use the shared wire.CmdOK / wire.CmdErr
// frames.
const binQuit byte = 0x9F

// openFlags travel as a subset of "rwcta" in text, "-" for none, and
// as one byte in a frame.
var openFlags = rpc.Arg{Kind: rpc.Flags, Frame: 0, Letters: "rwcta"}

// ops is the protocol, one row per operation: the opcode byte and the
// text verb, the reply, the handler, and the arguments in text order
// with each one's place in the frame.
var ops = rpc.Table[*session]{BadRequest: CodeBadRequest, Fallback: CodeBackend, Ops: []rpc.Op[*session]{
	rpc.Row(0x90, "open", rpc.U32, (*session).open, rpc.At(rpc.Path, 1), openFlags),
	rpc.Row(0x91, "close", rpc.None, (*session).close, rpc.At(rpc.FD, 0)),
	rpc.Row(0x92, "read", rpc.Bytes, (*session).read, rpc.At(rpc.FD, 0), rpc.At(rpc.Length, 1)),
	rpc.Row(0x93, "pread", rpc.Bytes, (*session).pread, rpc.At(rpc.FD, 0), rpc.At(rpc.Length, 1), rpc.At(rpc.Offset, 2)),
	rpc.Row(0x94, "write", rpc.U32, (*session).write, rpc.At(rpc.FD, 0), rpc.At(rpc.Data, 1)),
	rpc.Row(0x95, "pwrite", rpc.U32, (*session).pwrite, rpc.At(rpc.FD, 0), rpc.At(rpc.Data, 2), rpc.At(rpc.Offset, 1)),
	rpc.Row(0x96, "lseek", rpc.I64, (*session).seek, rpc.At(rpc.FD, 0), rpc.At(rpc.Offset, 2), rpc.At(rpc.Whence, 1)),
	rpc.Row(0x97, "unlink", rpc.None, (*session).unlink, rpc.At(rpc.Path, 0)),
	rpc.Row(0x98, "rename", rpc.None, (*session).rename, rpc.At(rpc.Path, 0), rpc.At(rpc.Path, 1)),
	rpc.Row(0x99, "stat", rpc.Stat, (*session).stat, rpc.At(rpc.Path, 0)),
	rpc.Row(0x9A, "getdir", rpc.List, (*session).getdir, rpc.At(rpc.Path, 0)),
}}

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

// Whence values for lseek, as in POSIX.
const (
	SeekSet = 0
	SeekCur = 1
	SeekEnd = 2
)
