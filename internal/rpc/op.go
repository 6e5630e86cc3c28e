package rpc

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"github.com/errscope/grid/internal/scope"
	"github.com/errscope/grid/internal/vfs"
	"github.com/errscope/grid/internal/wire"
)

// The operation tables of the two file protocols.  A protocol states
// each operation once, as a row: the opcode byte of its frame and the
// verb of its text line, its arguments in text order with each one's
// place in the frame, the shape of its reply, and the one handler,
// which sees the same arguments whichever encoding carried them.  The
// server walks a row to decode a request in either encoding and to
// encode its reply; the client walks the same row to encode the
// request and decode the reply.

// Kind is what an argument is; it fixes both of its encodings and what
// a refusal calls it.
type Kind uint8

const (
	FD     Kind = iota // text: decimal; frame: u32
	Offset             // text: decimal; frame: i64
	Whence             // text: decimal; frame: one byte
	Length             // a read's length: FD's encodings, refused outside 0..MaxData
	Flags              // text: letters of Arg.Letters, "-" for none; frame: one byte
	Path               // text: quoted; frame: u16-prefixed, or the rest of the payload when last
	Data               // a write's payload: text, its length, with the bytes after the line; frame: the rest
)

var kindNames = [...]string{FD: "fd", Offset: "offset", Whence: "whence", Length: "length",
	Flags: "flags", Path: "path", Data: "length"}

// Arg is one argument of an operation.
type Arg struct {
	Kind    Kind
	Frame   int    // its place in the frame payload
	Letters string // Flags: the letter of bit i is Letters[i]
}

// At is the argument of kind k at place frame in the frame payload.
func At(k Kind, frame int) Arg { return Arg{Kind: k, Frame: frame} }

// Shape is the shape of a reply, and where the handler leaves it.
type Shape uint8

const (
	None  Shape = iota // text "ok"; frame empty
	U32                // Req.N: text "ok n"; frame u32
	I64                // Req.N: text "ok n"; frame i64
	Bytes              // Req.Out: text "ok len" and the bytes after the line; frame the bytes
	Stat               // Req.Info: text "ok" and the stat record; frame the record
	List               // Req.List: text "ok n" and n stat lines; frame count u32 and n records
)

// Spec is an operation as the wire knows it, all a client needs.
type Spec struct {
	Code  byte
	Verb  string
	Args  []Arg // in text order
	Reply Shape
}

// Op is one row of a protocol's table.
type Op[S any] struct {
	Spec
	Run func(s S, q *Req) error
}

// Row builds a row.
func Row[S any](code byte, verb string, reply Shape, run func(S, *Req) error, args ...Arg) Op[S] {
	return Op[S]{Spec{Code: code, Verb: verb, Args: args, Reply: reply}, run}
}

// Req is one request as its handler sees it.  The argument at text
// position i is Int[i] or Str[i], and a write's payload is Data; the
// handler leaves its reply where the row's Shape says.  A server keeps
// one Req per connection, so a request allocates none.
type Req struct {
	Int  [3]int64
	Str  [3]string
	Data []byte

	N    int64
	Out  []byte
	Info vfs.Info
	List []vfs.Info
}

// Table is a protocol's operations, their opcodes consecutive from the
// first row's.
type Table[S any] struct {
	Ops        []Op[S]
	BadRequest string // the code of a malformed request's refusal
	Fallback   string // the code an unscoped handler error goes out as, at local-resource scope
	// Gate, if set, may refuse any request before its arguments are
	// decoded; a text write's payload is drained first.
	Gate func(s S, framed bool) error
}

func (t *Table[S]) refuse(format string, args ...any) error {
	return scope.New(scope.ScopeFunction, t.BadRequest, format, args...)
}

// Verb is the row of verb, or nil.
func (t *Table[S]) Verb(verb string) *Op[S] {
	for i := range t.Ops {
		if t.Ops[i].Verb == verb {
			return &t.Ops[i]
		}
	}
	return nil
}

// atFrame is the index of the argument at place at of the frame.
func (sp *Spec) atFrame(at int) int {
	return slices.IndexFunc(sp.Args, func(a Arg) bool { return a.Frame == at })
}

// checkLength refuses a read length outside 0..MaxData.
func (sp *Spec) checkLength(q *Req) string {
	for i, a := range sp.Args {
		if n := q.Int[i]; a.Kind == Length && (n < 0 || n > MaxData) {
			return fmt.Sprintf("bad length %d", n)
		}
	}
	return ""
}

func lost(err error) error { return scope.Escape(scope.ScopeNetwork, wire.CodeConnectionLostName, err) }

// Frame decodes one request frame, runs it and returns its reply
// payload, built in q.Out, the connection's scratch; a write's data
// aliases the frame.
func (t *Table[S]) Frame(s S, q *Req, cmd byte, pl []byte) ([]byte, error) {
	*q = Req{Out: wire.Keep(q.Out)}
	if t.Gate != nil {
		if err := t.Gate(s, true); err != nil {
			return nil, err
		}
	}
	i := int(cmd) - int(t.Ops[0].Code)
	if i < 0 || i >= len(t.Ops) {
		return nil, t.refuse("unknown command %#x", cmd)
	}
	op := &t.Ops[i]
	if why := op.decodeFrame(q, pl); why != "" {
		return nil, t.refuse("%s: %s", op.Verb, why)
	}
	if err := op.Run(s, q); err != nil {
		return nil, err
	}
	q.Out = op.Reply.appendFrame(q)
	return q.Out, nil
}

func (sp *Spec) decodeFrame(q *Req, pl []byte) string {
	cur := wire.NewCursor(pl)
	for at := range sp.Args {
		i := sp.atFrame(at)
		switch sp.Args[i].Kind {
		case FD, Length:
			q.Int[i] = int64(cur.U32())
		case Offset:
			q.Int[i] = cur.I64()
		case Whence, Flags:
			q.Int[i] = int64(cur.U8())
		case Path:
			if at == len(sp.Args)-1 {
				q.Str[i] = cur.RestString()
			} else {
				q.Str[i] = cur.Str()
			}
		case Data:
			q.Data = cur.Rest()
		}
	}
	switch {
	case !cur.OK():
		return "short payload"
	case !cur.Done():
		return "trailing bytes"
	}
	return sp.checkLength(q)
}

// appendFrame appends the request payload, all but a write's data,
// which travels as a part of its own.
func (sp *Spec) appendFrame(dst []byte, q *Req) []byte {
	for at := range sp.Args {
		i := sp.atFrame(at)
		switch v := q.Int[i]; sp.Args[i].Kind {
		case FD, Length:
			dst = wire.AppendU32(dst, uint32(v))
		case Offset:
			dst = wire.AppendI64(dst, v)
		case Whence, Flags:
			dst = append(dst, byte(v))
		case Path:
			if at == len(sp.Args)-1 {
				dst = append(dst, q.Str[i]...)
			} else {
				dst = wire.AppendStr(dst, q.Str[i])
			}
		}
	}
	return dst
}

func (sh Shape) appendFrame(q *Req) []byte {
	switch sh {
	case U32:
		return wire.AppendU32(q.Out, uint32(q.N))
	case I64:
		return wire.AppendI64(q.Out, q.N)
	case Stat:
		return appendInfo(q.Out, q.Info, true)
	case List:
		return appendInfos(q.Out, q.List)
	}
	return q.Out
}

// Text decodes one text request, runs it and writes its reply.  A
// write's payload follows its line, so nothing but its length may
// refuse before the payload is read: a length that parses is drained
// even past MaxData and the session goes on, while one that does not
// leaves the stream unframed, and Text returns that fatal error beside
// the refusal.  q.Out is the connection's scratch.
func (t *Table[S]) Text(s S, q *Req, verb string, a *Args, r *bufio.Reader, w *bufio.Writer) error {
	*q = Req{Out: wire.Keep(q.Out)}
	op, err, fatal := t.decodeText(s, q, verb, a, r)
	switch {
	case err == nil && fatal != nil:
		return fatal // the connection failed mid-payload: nobody to answer
	case err == nil:
		err = op.Run(s, q)
	}
	if err != nil {
		w.WriteString(wire.EncodeError(err, t.Fallback, scope.ScopeLocalResource))
	} else {
		op.Reply.writeText(w, q)
	}
	return fatal
}

func (t *Table[S]) decodeText(s S, q *Req, verb string, a *Args, r *bufio.Reader) (op *Op[S], err, fatal error) {
	if verb == "" {
		return nil, t.refuse("empty request"), nil
	}
	if op = t.Verb(verb); op != nil {
		if err, fatal = t.readPayload(op, q, *a, r); err != nil || fatal != nil {
			return nil, err, fatal
		}
	}
	if t.Gate != nil {
		if err := t.Gate(s, false); err != nil {
			return nil, err, nil
		}
	}
	if op == nil {
		return nil, t.refuse("unknown verb %q", verb), nil
	}
	for i, arg := range op.Args {
		switch arg.Kind {
		case Path:
			q.Str[i] = a.Path()
		case Flags:
			q.Int[i] = a.letters(arg.Letters)
		case Data:
			a.Next(kindNames[Data]) // the length readPayload acted on
		default:

			q.Int[i] = a.Int64(kindNames[arg.Kind])
		}
	}
	if err := a.Done(); err != nil {
		return nil, t.refuse("%s: %v", verb, err), nil
	}
	if why := op.checkLength(q); why != "" {
		return nil, t.refuse("%s: %s", verb, why), nil
	}
	return op, nil, nil
}

// readPayload reads a write's payload into q.Data, decoding only its
// length from a copy of the arguments, which the caller decodes after.
func (t *Table[S]) readPayload(op *Op[S], q *Req, a Args, r *bufio.Reader) (err, fatal error) {
	if !slices.ContainsFunc(op.Args, func(arg Arg) bool { return arg.Kind == Data }) {
		return nil, nil
	}
	var n int64
	for _, arg := range op.Args {
		if arg.Kind == Data {
			n = a.Int64(kindNames[Data])
		} else {
			a.Next(kindNames[arg.Kind])
		}
	}
	switch {
	case a.Done() != nil || n < 0:
		return t.refuse("%s: bad length", op.Verb), scope.New(scope.ScopeNetwork, "ProtocolError", "unframed write request")
	case n > MaxData:
		// The length parsed, so the framing is intact: the declared
		// payload follows whether it is wanted or not.  Drain it and
		// refuse, keeping the session — a teardown would turn a
		// function-scope refusal into a network-scope failure.
		if _, err := io.CopyN(io.Discard, r, n); err != nil {
			return nil, lost(err)
		}
		return t.refuse("length %d exceeds limit %d", n, MaxData), nil
	}
	q.Out = slices.Grow(q.Out, int(n)) // the connection keeps the grown scratch
	q.Data = q.Out[:n]
	if _, err := io.ReadFull(r, q.Data); err != nil {
		return nil, lost(err)
	}
	return nil, nil
}

func writeOK(w *bufio.Writer, n int64) {
	w.WriteString("ok ")
	w.Write(strconv.AppendInt(w.AvailableBuffer(), n, 10))
	w.WriteByte('\n')
}

func (sh Shape) writeText(w *bufio.Writer, q *Req) {
	switch sh {
	case None:
		w.WriteString("ok\n")
	case U32, I64:
		writeOK(w, q.N)
	case Bytes:
		writeOK(w, int64(len(q.Out)))
		w.Write(q.Out)
	case Stat:
		w.Write(appendInfoLine(append(w.AvailableBuffer(), "ok "...), q.Info))
		w.WriteByte('\n')
	case List:
		writeOK(w, int64(len(q.List)))
		for _, info := range q.List {
			w.Write(appendInfoLine(w.AvailableBuffer(), info))
			w.WriteByte('\n')
		}
	}
}

// appendText appends the request line; a write's payload follows it.
func (sp *Spec) appendText(dst []byte, q *Req) []byte {
	dst = append(dst, sp.Verb...)
	for i, a := range sp.Args {
		dst = append(dst, ' ')
		switch a.Kind {
		case Path:
			dst = strconv.AppendQuote(dst, q.Str[i])
		case Flags:
			dst = AppendLetters(dst, a.Letters, q.Int[i])
		case Data:
			dst = strconv.AppendInt(dst, int64(len(q.Data)), 10)
		default:
			dst = strconv.AppendInt(dst, q.Int[i], 10)
		}
	}
	return append(dst, '\n')
}

// AppendLetters appends the text form of flags: the letter of each
// set bit, lowest first, or "-" for none.
func AppendLetters(dst []byte, letters string, flags int64) []byte {
	n := len(dst)
	for i := range len(letters) {
		if flags&(1<<i) != 0 {
			dst = append(dst, letters[i])
		}
	}
	if len(dst) == n {
		dst = append(dst, '-')
	}
	return dst
}

// ParseLetters parses the text form of flags.
func ParseLetters(letters, s string) (int64, error) {
	var flags int64
	if s == "-" {
		return 0, nil
	}
	for i := range len(s) {
		bit := strings.IndexByte(letters, s[i])
		if bit < 0 {
			return 0, fmt.Errorf("bad flags %q", s)
		}
		flags |= 1 << bit
	}
	return flags, nil
}
