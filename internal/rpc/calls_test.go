package rpc

import (
	"bufio"

	"github.com/errscope/grid/internal/scope"
	"github.com/errscope/grid/internal/vfs"
	"github.com/errscope/grid/internal/wire"
)

// Raw round trips for the conformance suite's scripted peers: a
// request the suite spells out, its reply decoded by the decoders
// Invoke runs.

func (c *Client) raw(sh Shape, q *Req, cmd byte, request string) error {
	sp := &Spec{Code: cmd, Verb: "raw", Reply: sh}
	return c.exchange(func() error {
		if c.sess != nil {
			return c.frameReply(sp, q, []byte(request))
		}
		c.w.WriteString(request)
		return c.textReply(sp, q)
	})
}

func (c *Client) CallData(dst []byte, request string) ([]byte, error) {
	q := Req{Out: dst}
	err := c.raw(Bytes, &q, 0, request)
	return q.Out, err
}

func (c *Client) CallStat(request string) (vfs.Info, error) {
	var q Req
	err := c.raw(Stat, &q, 0, request)
	return q.Info, err
}

func (c *Client) CallList(request string) ([]vfs.Info, error) {
	var q Req
	err := c.raw(List, &q, 0, request)
	return q.List, err
}

func (c *Client) CallStatBin(cmd byte, path string) (vfs.Info, error) {
	var q Req
	err := c.raw(Stat, &q, cmd, path)
	return q.Info, err
}

func (c *Client) CallListBin(cmd byte, prefix string) ([]vfs.Info, error) {
	var q Req
	err := c.raw(List, &q, cmd, prefix)
	return q.List, err
}

// Reply is a scripted text peer's answer: "ok", or Err's error line.
type Reply struct{ Err error }

func (rp Reply) WriteTo(w *bufio.Writer, fallbackCode string, fallbackScope scope.Scope) {
	if rp.Err != nil {
		w.WriteString(wire.EncodeError(rp.Err, fallbackCode, fallbackScope))
		return
	}
	w.WriteString("ok\n")
}
