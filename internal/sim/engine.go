package sim

import "fmt"

// Engine is a discrete-event simulation driver: a virtual clock plus a
// cancellable event queue. Events scheduled for the same instant fire in
// FIFO order of scheduling, which keeps runs deterministic.
//
// The queue is one slice kept sorted latest-first by (when, seq), see
// event.go. The simulated machines keep 5–10 events pending and schedule
// three events in four ahead of all of them, so a schedule is usually one
// comparison and an append, and a dispatch takes the last element.
//
// The engine allocates nothing in steady state: fired and cancelled Event
// records are recycled through a free list and the queue slice is reused,
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
	queue  []*Event // pending events, latest first (event.go)
	rng    *RNG

	// qbuf backs queue until it outgrows 16 events, so an engine costs one
	// allocation. That covers every simulated machine but the web cells,
	// whose NIC bursts keep up to about 100 events pending and grow the
	// queue a few times per machine.
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
	return &Event{}
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
	e.insert(ev)
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
	e.remove(int(ev.index))
	e.release(ev)
	return true
}

// Step fires the next pending event, advancing the clock to its timestamp.
// It returns false when the queue is empty.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	e.fireNext()
	return true
}

// fireNext takes the earliest pending event off the end of the queue,
// moves the clock to it and runs its callback. The vacated slot is not
// cleared: it can only point at a record the engine pools anyway. The
// record is recycled only after the callback returns, giving handle
// holders that nil their reference inside the callback a race-free window.
func (e *Engine) fireNext() {
	n := len(e.queue) - 1
	ev := e.queue[n]
	e.queue = e.queue[:n]
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
	for n := len(e.queue); n > 0 && e.queue[n-1].when <= t; n = len(e.queue) {
		e.fireNext()
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
