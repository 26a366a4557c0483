package sim

// equeue is the event store shared by the single-threaded Engine and each
// shard of the ShardedEngine: an indexed 4-ary min-heap ordered by
// (time, sequence) with the sift loops inlined (no container/heap interface
// calls), plus a free list that recycles fired or cancelled Event slots so
// the steady-state schedule/fire cycle performs no allocations.
//
// An equeue is single-owner: exactly one goroutine may touch it at a time.
// The Engine owns its queue outright; a shard's queue is owned by the
// shard's worker during a window and by the barrier goroutine between
// windows (the window handoff provides the happens-before edge).
//
// parked counts entries that hold a reserved sequence number but wait
// outside the heap behind a Lane's head; they are pending all the same.
type equeue struct {
	heap   []*Event
	free   []*Event
	seq    uint64
	parked int

	slotAllocs uint64 // Event structs ever allocated
	slotReuses uint64 // acquisitions served from the free list
}

func (q *equeue) len() int { return len(q.heap) }

// pending counts every queued firing: heap-resident events plus the
// entries parked behind lane heads.
func (q *equeue) pending() int { return len(q.heap) + q.parked }

// reserve consumes the next sequence number exactly as an acquire would.
func (q *equeue) reserve() uint64 {
	seq := q.seq
	q.seq++
	return seq
}

// head returns the earliest event without removing it, or nil.
func (q *equeue) head() *Event {
	if len(q.heap) == 0 {
		return nil
	}
	return q.heap[0]
}

// acquire takes an event slot keyed (t, next sequence number).
func (q *equeue) acquire(t Time, fn func()) *Event {
	return q.acquireKeyed(t, q.reserve(), fn)
}

// acquireKeyed takes an event slot from the free list (bumping its
// generation so stale handles go inert) or allocates a fresh one, keyed
// (t, seq) under a sequence number reserved earlier. It does not advance
// the counter.
func (q *equeue) acquireKeyed(t Time, seq uint64, fn func()) *Event {
	var ev *Event
	if n := len(q.free); n > 0 {
		ev = q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
		ev.gen++
		ev.cancel = false
		q.slotReuses++
	} else {
		ev = &Event{}
		q.slotAllocs++
	}
	ev.at = t
	ev.seq = seq
	ev.fn = fn
	return ev
}

// release returns a slot to the free list. The generation is bumped on the
// next acquire, not here, so handles to the completed event still read
// their Cancelled state until the slot is reused.
func (q *equeue) release(ev *Event) {
	ev.fn = nil // drop the closure reference immediately
	q.free = append(q.free, ev)
}

// less orders events by (time, sequence); sequence numbers are unique so
// the order is total and FIFO among equal timestamps.
func eventLess(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push appends ev and restores the 4-ary heap invariant.
func (q *equeue) push(ev *Event) {
	i := len(q.heap)
	q.heap = append(q.heap, ev)
	ev.index = int32(i)
	q.siftUp(i)
}

// pop removes and returns the earliest event.
func (q *equeue) pop() *Event {
	h := q.heap
	root := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	q.heap = h[:n]
	if n > 0 {
		h[0] = last
		last.index = 0
		q.siftDown(0)
	}
	root.index = -1
	return root
}

// remove removes the event at heap index i (cancellation).
func (q *equeue) remove(i int) {
	h := q.heap
	n := len(h) - 1
	ev := h[i]
	last := h[n]
	h[n] = nil
	q.heap = h[:n]
	if i < n {
		h[i] = last
		last.index = int32(i)
		if !q.siftDown(i) {
			q.siftUp(i)
		}
	}
	ev.index = -1
}

// siftUp moves the event at index i toward the root until its parent is not
// later than it.
func (q *equeue) siftUp(i int) {
	h := q.heap
	ev := h[i]
	for i > 0 {
		p := (i - 1) >> 2
		par := h[p]
		if !eventLess(ev, par) {
			break
		}
		h[i] = par
		par.index = int32(i)
		i = p
	}
	h[i] = ev
	ev.index = int32(i)
}

// siftDown moves the event at index i toward the leaves, swapping with its
// earliest child while that child sorts before it. It reports whether the
// event moved.
func (q *equeue) siftDown(i0 int) bool {
	h := q.heap
	n := len(h)
	i := i0
	ev := h[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		// Earliest of the up-to-four children.
		m, mc := c, h[c]
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if eventLess(h[j], mc) {
				m, mc = j, h[j]
			}
		}
		if !eventLess(mc, ev) {
			break
		}
		h[i] = mc
		mc.index = int32(i)
		i = m
	}
	h[i] = ev
	ev.index = int32(i)
	return i > i0
}

// cancel implements the generation-checked Cancel contract on this queue.
// It is safe on a zero handle, a fired handle, and a stale handle.
func (q *equeue) cancel(h Handle) {
	ev := h.ev
	if ev == nil || ev.gen != h.gen || ev.cancel {
		return
	}
	if ev.index >= 0 {
		ev.cancel = true
		q.remove(int(ev.index))
		q.release(ev)
		return
	}
	// Already fired (and released); record the cancel so Cancelled() reads
	// true until the slot is reused, matching the pre-pool semantics.
	ev.cancel = true
}
