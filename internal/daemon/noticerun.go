package daemon

// A noticeRun gathers a run of per-job notices: a maximal sequence of
// same-kind notices from one actor to one destination, inside one
// callback, with no other send from that actor between them.  The run
// travels as one bus message whose body carries the entries in order,
// and the receiver handles them in order with its per-job handler.
//
// Sending a run as one message changes no decision.  Sent one by one,
// the notices of a run were consecutive same-instant deliveries to one
// actor, with consecutive sequence numbers, so no event could run
// between them; everything a handler scheduled while handling one
// came after the rest.  Handled in one delivery, each receiver sees the
// same notices in the same order at the same instant, and what its
// handlers schedule keeps the same order.  The rule that makes this
// hold is the owner's to keep: any other send from the actor closes
// the open run first (flush), and so does the end of the callback.
//
// Two runs use it: the schedd's job advertisements (jobAdsMsg; the
// idle refresh and Recover's re-advertise loop gather the queue into
// them) and the matchmaker's no-match notices (noMatchMsg), each cut
// wherever the destination changes or another send intervenes.
type noticeRun[E any] struct {
	to      string
	entries []E
	// hint, when set, is the owner's bound on the next run's length:
	// that run starts at this capacity and clears it, so a refresh
	// allocates its body once.  Other runs grow by append.
	hint int
	// send delivers a closed run; it is bound once, by the owner.
	send func(to string, entries []E)
}

// add appends e to the run to `to`, first sending a run open to
// another destination.
func (r *noticeRun[E]) add(to string, e E) {
	if len(r.entries) > 0 && r.to != to {
		r.flush()
	}
	if r.entries == nil {
		r.entries = make([]E, 0, max(r.hint, 1))
		r.hint = 0
	}
	r.to = to
	r.entries = append(r.entries, e)
}

// flush sends the open run, if there is one, and closes it; an unused
// hint goes with it.  The sent body owns the entries, so the next run
// starts a new slice.
func (r *noticeRun[E]) flush() {
	r.hint = 0
	if len(r.entries) == 0 {
		return
	}
	entries := r.entries
	r.entries = nil
	r.send(r.to, entries)
}
