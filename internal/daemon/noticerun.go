package daemon

import "slices"

// A noticeRun gathers a run of the matchmaker's no-match notices: a
// maximal sequence of them to one schedd, inside one negotiation
// cycle, with no other send from the matchmaker between them.  The
// run travels as one bus message (noMatchMsg) whose body carries the
// job ids in order, and the schedd handles them in order with its
// per-job handler.
//
// Sending a run as one message changes no decision.  Sent one by one,
// the notices of a run were consecutive same-instant deliveries to one
// actor, with consecutive sequence numbers, so no event could run
// between them; everything a handler scheduled while handling one
// came after the rest.  Handled in one delivery, the schedd sees the
// same notices in the same order at the same instant, and what its
// handlers schedule keeps the same order.  The rule that makes this
// hold is the matchmaker's to keep: any other send closes the open run
// first (flush), and so does the end of the cycle.
//
// The schedd's job advertisements were runs too, until the refresh
// became a heartbeat (jobAdsMsg): a refresh now carries only what
// changed, so there is nothing left to gather.
type noticeRun struct {
	to string
	// buf holds the open run; it is reused, and each run sent is an
	// exact copy, so a run costs one allocation of its own size.
	buf []JobID
	// send delivers a closed run; it is bound once, by the owner.
	send func(to string, jobs []JobID)
}

// add appends a notice to the run to `to`, first sending a run open to
// another destination.
func (r *noticeRun) add(to string, job JobID) {
	if len(r.buf) > 0 && r.to != to {
		r.flush()
	}
	r.to = to
	r.buf = append(r.buf, job)
}

// flush sends the open run, if there is one, and closes it.  The sent
// body owns its copy of the entries.
func (r *noticeRun) flush() {
	if len(r.buf) == 0 {
		return
	}
	jobs := slices.Clone(r.buf)
	r.buf = r.buf[:0]
	r.send(r.to, jobs)
}
