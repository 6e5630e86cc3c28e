package daemon

// A jobWindow indexes values by JobID.  Job ids are dense — a schedd
// hands them out in order — so the values live in a slice window:
// slots[i] holds id base+i, nil once dropped, and the window is
// trimmed at both ends to the ids still held, so it spans the live ids
// and not every id ever handed out.  An id the window cannot take —
// not positive, below the window, or more than windowSlack past its
// end — goes to the far map instead: a requeued job re-advertised
// after the window moved past it, or an id only a forged journal
// writes.  An id is held in one place at a time, and a nil slot defers
// to the far map, so the window may later grow over a far id.  The
// schedd keeps its queue in one, and the matchmaker each schedd's
// requests.
type jobWindow[T any] struct {
	base  JobID
	slots []*T
	far   map[JobID]*T
}

// windowSlack bounds how far past its end a window grows to take an
// id.
const windowSlack = 1 << 16

// get returns the value held for id, or nil.
func (w *jobWindow[T]) get(id JobID) *T {
	if id >= w.base && id-w.base < JobID(len(w.slots)) {
		if v := w.slots[id-w.base]; v != nil {
			return v
		}
	}
	return w.far[id]
}

// put holds v for id.
func (w *jobWindow[T]) put(id JobID, v *T) {
	n := JobID(len(w.slots))
	switch {
	case id <= 0 || id > 1<<40:
	case n == 0:
		w.base, w.slots = id, append(w.slots, v)
		delete(w.far, id)
		return
	case id >= w.base && id-w.base < n:
		w.slots[id-w.base] = v
		delete(w.far, id)
		return
	case id >= w.base && id-w.base < n+windowSlack:
		for w.base+JobID(len(w.slots)) < id {
			w.slots = append(w.slots, nil)
		}
		w.slots = append(w.slots, v)
		delete(w.far, id)
		return
	}
	if w.far == nil {
		w.far = make(map[JobID]*T)
	}
	w.far[id] = v
}

// drop forgets id, trimming the window to the ids still held.
func (w *jobWindow[T]) drop(id JobID) {
	delete(w.far, id)
	if id < w.base || id-w.base >= JobID(len(w.slots)) {
		return
	}
	w.slots[id-w.base] = nil
	lo, hi := 0, len(w.slots)
	for lo < hi && w.slots[lo] == nil {
		lo++
	}
	for hi > lo && w.slots[hi-1] == nil {
		hi--
	}
	w.slots, w.base = w.slots[lo:hi], w.base+JobID(lo)
}
