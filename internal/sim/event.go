package sim

// eventState tracks where an Event record is in the pooling lifecycle.
// Records cycle pending -> dead -> (recycled by the engine) -> pending; the
// state field is what lets Cancel reject handles whose records the engine
// has already reclaimed instead of corrupting the queue.
type eventState uint8

const (
	// stateDead: the event fired or was cancelled. The record belongs to
	// the engine's free list and may be reissued by the next At/After.
	stateDead eventState = iota
	// statePending: the event is in the engine's queue.
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
	index int32  // position in Engine.queue while pending
	state eventState
	fn    func(Time)
}

// When returns the virtual time at which the event is (or, for a dead
// record not yet recycled, was) scheduled to fire.
func (e *Event) When() Time { return e.when }

// Pending reports whether the event is still in the queue (scheduled and
// neither fired nor cancelled).
func (e *Event) Pending() bool { return e != nil && e.state == statePending }

// The event queue is one slice, Engine.queue, kept sorted latest-first by
// (when, seq), with each event carrying its own position for Cancel. The
// next event to fire is the last element, so dispatch takes it without
// reordering anything. On the simulated machines three schedules in four
// land ahead of every pending event, which makes insertion from the end one
// comparison and an append; the queue holds 5–10 events, except in the web
// cells, whose NIC bursts take it to about 100 (DESIGN.md §7.6).

// eventLess orders the queue: earlier timestamp first, scheduling order
// (seq) breaking ties so same-instant events fire FIFO.
func eventLess(a, b *Event) bool {
	return a.when < b.when || (a.when == b.when && a.seq < b.seq)
}

// insert adds ev, moving each pending event that fires before it one slot
// towards the end.
func (e *Engine) insert(ev *Event) {
	q := append(e.queue, ev)
	i := len(q) - 1
	for ; i > 0 && eventLess(q[i-1], ev); i-- {
		q[i] = q[i-1]
		q[i].index = int32(i)
	}
	q[i] = ev
	ev.index = int32(i)
	e.queue = q
}

// remove deletes the event at position i, moving each event that fires
// before it one slot back.
func (e *Engine) remove(i int) {
	q := e.queue[:len(e.queue)-1]
	for ; i < len(q); i++ {
		q[i] = e.queue[i+1]
		q[i].index = int32(i)
	}
	e.queue = q
}
