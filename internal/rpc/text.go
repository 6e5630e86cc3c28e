package rpc

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"github.com/errscope/grid/internal/scope"
	"github.com/errscope/grid/internal/wire"
)

// fields splits a text request line into its arguments.  It is
// strings.Fields, except that an argument opening with a double quote
// runs to its closing quote: wire.Quote escapes every other kind of
// white space but leaves the plain space alone, so a quoted path may
// contain spaces that must not split it.  An unterminated quote splits
// as strings.Fields would, and fails to unquote later.
func fields(line string) []string {
	var out []string
	for {
		line = strings.TrimLeftFunc(line, unicode.IsSpace)
		if line == "" {
			return out
		}
		end := 0
		if line[0] == '"' {
			end = quotedLen(line)
		}
		if i := strings.IndexFunc(line[end:], unicode.IsSpace); i >= 0 {
			end += i
		} else {
			end = len(line)
		}
		out = append(out, line[:end])
		line = line[end:]
	}
}

// quotedLen is the length of the double-quoted string that opens s,
// or 0 if its quote never closes.
func quotedLen(s string) int {
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			return i + 1
		}
	}
	return 0
}

// Args decodes the arguments of one text request in order.  The first
// failure sticks — later reads return zero values — and is reported by
// Done, so a decoder reads every argument it wants and checks once.
type Args struct {
	rest []string
	err  error
}

// ParseRequest splits a request line into its verb ("" for an empty
// line) and arguments.
func ParseRequest(line string) (string, *Args) {
	f := fields(line)
	if len(f) == 0 {
		return "", &Args{}
	}
	return f[0], &Args{rest: f[1:]}
}

// Next returns the next argument as sent; what names it in the error.
func (a *Args) Next(what string) string {
	if a.err != nil {
		return ""
	}
	if len(a.rest) == 0 {
		a.err = fmt.Errorf("missing %s", what)
		return ""
	}
	arg := a.rest[0]
	a.rest = a.rest[1:]
	return arg
}

func (a *Args) num(what string, bits int) int64 {
	arg := a.Next(what)
	n, err := strconv.ParseInt(arg, 10, bits)
	if err != nil {
		if a.err == nil {
			a.err = fmt.Errorf("bad %s %q", what, arg)
		}
		return 0
	}
	return n
}

// Int64 decodes a decimal argument.
func (a *Args) Int64(what string) int64 { return a.num(what, 64) }

// Int decodes a decimal argument that fits an int.
func (a *Args) Int(what string) int { return int(a.num(what, strconv.IntSize)) }

// Path decodes a quoted string argument.
func (a *Args) Path() string {
	arg := a.Next("path")
	p, err := wire.Unquote(arg)
	if err != nil && a.err == nil {
		a.err = fmt.Errorf("bad path encoding %q", arg)
	}
	return p
}

// Done reports why the request is malformed: the first argument that
// failed to decode, or arguments left over.
func (a *Args) Done() error {
	if a.err == nil && len(a.rest) != 0 {
		a.err = fmt.Errorf("too many arguments")
	}
	return a.err
}

// Reply is a server's answer to one text request, the line Client.Call
// reads back: "ok [value]" followed by Data, or Err's error line.
type Reply struct {
	Value string
	Data  []byte
	Err   error
}

// WriteTo writes the reply; an Err that is not scoped goes out at the
// fallback code and scope — the server cannot explain it, but it can
// still state a scope.
func (rp Reply) WriteTo(w *bufio.Writer, fallbackCode string, fallbackScope scope.Scope) {
	switch {
	case rp.Err != nil:
		w.WriteString(wire.EncodeError(rp.Err, fallbackCode, fallbackScope))
	case rp.Value == "":
		w.WriteString("ok\n")
	default:
		w.WriteString("ok ")
		w.WriteString(rp.Value)
		w.WriteByte('\n')
		w.Write(rp.Data)
	}
}
