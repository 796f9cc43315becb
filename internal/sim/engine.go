package sim

import "fmt"

// Engine is a discrete-event simulation driver: a virtual clock plus a
// cancellable event queue. Events scheduled for the same instant fire in
// FIFO order of scheduling, which keeps runs deterministic.
//
// The queue is a 4-ary min-heap over (when, seq), see event.go. The
// simulated machines keep only a handful of events pending — at most ten
// in a Win98 or NT4 measurement cell — so the heap is at most two levels
// below its root and every schedule, cancel and dispatch is a few
// comparisons.
//
// The engine allocates nothing in steady state: fired and cancelled Event
// records are recycled through a free list and the heap slice is reused,
// so a long-running simulation settles into a fixed working set no matter
// how many events it dispatches. The price of pooling is a handle
// discipline — see Event.
//
// Engine is not safe for concurrent use; the whole simulator is
// single-threaded by design (see the kernel package for how simulated
// threads are multiplexed onto it).
type Engine struct {
	now    Time
	seq    uint64
	nfired uint64
	free   *Event   // dead records awaiting reuse, chained through next
	queue  []*Event // pending events, a 4-ary min-heap (event.go)
	rng    *RNG

	// qbuf backs queue until it outgrows 16 events, more than any
	// simulated machine keeps pending, so an engine costs one allocation.
	qbuf [16]*Event
}

// NewEngine returns an engine at time zero with a deterministic RNG seeded
// from seed.
func NewEngine(seed uint64) *Engine {
	e := &Engine{rng: NewRNG(seed)}
	e.queue = e.qbuf[:0]
	return e
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// RNG returns the engine's random number generator. All stochastic behaviour
// in a simulation should derive from this generator so that runs are
// reproducible from the engine seed.
func (e *Engine) RNG() *RNG { return e.rng }

// Fired returns the total number of events dispatched so far.
func (e *Engine) Fired() uint64 { return e.nfired }

// Pending returns the number of events currently queued.
func (e *Engine) Pending() int { return len(e.queue) }

// alloc returns a recycled Event record, or a fresh one if the pool is dry.
// The pool is an intrusive LIFO chained through the records' own next
// links, so it needs no backing slice and recycles the most recently
// released (cache-warm) record first.
func (e *Engine) alloc() *Event {
	if ev := e.free; ev != nil {
		e.free = ev.next
		ev.next = nil
		return ev
	}
	return &Event{index: -1}
}

// release returns a dead record to the pool. The callback is dropped so the
// pool does not pin closures (and whatever they capture) alive.
func (e *Engine) release(ev *Event) {
	ev.fn = nil
	ev.state = stateDead
	ev.next = e.free
	e.free = ev
}

// At schedules fn to run at absolute time t. Scheduling in the past (before
// Now) panics: it would silently reorder causality.
func (e *Engine) At(t Time, fn func(Time)) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %d before now %d", t, e.now))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	ev := e.alloc()
	ev.when = t
	ev.seq = e.seq
	ev.fn = fn
	ev.state = statePending
	e.seq++
	e.heapPush(ev)
	return ev
}

// After schedules fn to run d cycles from now. Negative delays panic.
func (e *Engine) After(d Cycles, fn func(Time)) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	return e.At(e.now.Add(d), fn)
}

// Cancel removes a pending event from the queue and recycles its record;
// the caller must drop the handle. Cancelling an event that already fired
// or was already cancelled is a no-op and returns false.
func (e *Engine) Cancel(ev *Event) bool {
	if ev == nil || ev.state != statePending {
		return false
	}
	e.heapRemove(int(ev.index))
	e.release(ev)
	return true
}

// Reschedule moves a pending event to a new absolute time, preserving its
// callback. The event must be pending: records are pooled, so a handle
// whose event fired or was cancelled may already describe someone else's
// event, and rescheduling it would corrupt the queue — Reschedule panics
// instead. Re-arm by scheduling a fresh event.
func (e *Engine) Reschedule(ev *Event, t Time) {
	if ev == nil {
		panic("sim: Reschedule of nil event")
	}
	if ev.state != statePending {
		panic("sim: Reschedule of dead event: it already fired or was cancelled and its record may have been recycled")
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: rescheduling at %d before now %d", t, e.now))
	}
	ev.when = t
	ev.seq = e.seq
	e.seq++
	e.heapFix(int(ev.index))
}

// Step fires the next pending event, advancing the clock to its timestamp.
// It returns false when the queue is empty.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	e.fireMin()
	return true
}

// fireMin pops the earliest pending event, moves the clock to it and runs
// its callback. The record is recycled only after the callback returns,
// giving handle holders that nil their reference inside the callback a
// race-free window.
func (e *Engine) fireMin() {
	ev := e.heapPopMin()
	e.now = ev.when
	e.nfired++
	fn := ev.fn
	ev.state = stateDead
	fn(e.now)
	e.release(ev)
}

// RunUntil fires events in timestamp order until the clock reaches t (events
// at exactly t do fire) or the queue drains. The clock is left at t or at
// the time of the last fired event, whichever is later. Events the
// callbacks schedule at or before t — including at the current instant —
// fire in this same call.
func (e *Engine) RunUntil(t Time) {
	for len(e.queue) > 0 && e.queue[0].when <= t {
		e.fireMin()
	}
	if e.now < t {
		e.now = t
	}
}

// RunFor advances the simulation by d cycles (see RunUntil).
func (e *Engine) RunFor(d Cycles) { e.RunUntil(e.now.Add(d)) }

// Drain fires every pending event. It is mainly useful in tests; real
// simulations have periodic sources and never drain. The limit guards
// against runaway self-rescheduling loops: Drain panics after firing limit
// events if the queue is still non-empty.
func (e *Engine) Drain(limit int) {
	for i := 0; len(e.queue) > 0; i++ {
		if i >= limit {
			panic(fmt.Sprintf("sim: Drain exceeded %d events", limit))
		}
		e.Step()
	}
}
