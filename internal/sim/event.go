package sim

// eventState tracks where an Event record is in the pooling lifecycle.
// Records cycle pending -> dead -> (recycled by the engine) -> pending; the
// state field is what lets Cancel and Reschedule reject handles whose
// records the engine has already reclaimed instead of corrupting the queue.
type eventState uint8

const (
	// stateDead: the event fired or was cancelled. The record belongs to
	// the engine's free list and may be reissued by the next At/After.
	stateDead eventState = iota
	// statePending: the event is in the engine's heap.
	statePending
)

// Event is a scheduled callback in the simulation. Events are created with
// Engine.At or Engine.After and may be cancelled before they fire. The zero
// Event is not usable.
//
// Event records are pooled: once an event has fired or been cancelled its
// record is recycled into a future At/After call, so a retained *Event is
// only meaningful while Pending reports true. Holders that may outlive
// their event (device re-arm loops, per-thread timeout slots) must drop the
// handle — conventionally by nilling their field at the top of the event's
// own callback — before the engine can hand the record to someone else.
type Event struct {
	when  Time
	seq   uint64 // tie-break: FIFO among events with equal timestamps
	next  *Event // free-list link while dead
	index int32  // heap position, -1 when not in the heap
	state eventState
	fn    func(Time)
	label string
}

// When returns the virtual time at which the event is (or, for a dead
// record not yet recycled, was) scheduled to fire.
func (e *Event) When() Time { return e.when }

// Pending reports whether the event is still in the queue (scheduled and
// neither fired nor cancelled).
func (e *Event) Pending() bool { return e != nil && e.state == statePending }

// Label returns the debugging label attached at scheduling time.
func (e *Event) Label() string {
	if e == nil {
		return ""
	}
	return e.label
}

// The event queue is a 4-ary min-heap over (when, seq), stored in
// Engine.queue with each event carrying its own index for O(log n)
// cancellation. A 4-ary layout halves the tree depth of a binary heap and
// keeps the four children of a node in one or two cache lines of the
// backing slice; the hand-specialized code also avoids the container/heap
// interface-call and boxing overhead on every operation.

// eventLess orders the heap: earlier timestamp first, scheduling order
// (seq) breaking ties so same-instant events fire FIFO.
func eventLess(a, b *Event) bool {
	return a.when < b.when || (a.when == b.when && a.seq < b.seq)
}

// heapPush appends ev and restores heap order.
func (e *Engine) heapPush(ev *Event) {
	e.queue = append(e.queue, ev)
	e.siftUp(len(e.queue) - 1)
}

// heapPopMin removes and returns the minimum element.
func (e *Engine) heapPopMin() *Event {
	q := e.queue
	min := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	e.queue = q[:n]
	if n > 0 {
		q[0] = last
		e.siftDown(0)
	}
	min.index = -1
	return min
}

// heapRemove deletes the element at index i.
func (e *Engine) heapRemove(i int) {
	q := e.queue
	n := len(q) - 1
	rem := q[i]
	last := q[n]
	q[n] = nil
	e.queue = q[:n]
	if i < n {
		q[i] = last
		e.heapFix(i)
	}
	rem.index = -1
}

// heapFix restores order after the element at i changed key.
func (e *Engine) heapFix(i int) {
	if !e.siftDown(i) {
		e.siftUp(i)
	}
}

func (e *Engine) siftUp(i int) {
	q := e.queue
	ev := q[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !eventLess(ev, q[p]) {
			break
		}
		q[i] = q[p]
		q[i].index = int32(i)
		i = p
	}
	q[i] = ev
	ev.index = int32(i)
}

// siftDown reports whether the element moved, so heapFix can fall back to
// siftUp when the key decreased.
func (e *Engine) siftDown(i int) bool {
	q := e.queue
	n := len(q)
	ev := q[i]
	start := i
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		m := c
		for j := c + 1; j < end; j++ {
			if eventLess(q[j], q[m]) {
				m = j
			}
		}
		if !eventLess(q[m], ev) {
			break
		}
		q[i] = q[m]
		q[i].index = int32(i)
		i = m
	}
	q[i] = ev
	ev.index = int32(i)
	return i != start
}
