package sim

import (
	"container/heap"
	"testing"
)

// Differential oracle for the engine: a deliberately naive reference
// engine — a container/heap priority queue over (when, seq) with the same
// observable contract (Step, RunUntil batching, Cancel, FIFO at one
// instant) — is driven through identical random scripts, and the two
// dispatch traces must agree entry for entry on (time, seq, label). The
// engine's sorted queue, index bookkeeping and record pooling are
// invisible to the trace, which is exactly the point: they must be. Two
// scripts share the reference: a wide one over every delay scale
// (TestWheelMatchesReferenceEngine) and a dense one of short delays and
// NIC-style bursts (TestEngineHeapMatchesOracle). Both move events by
// cancelling them and scheduling them again, which removes from the middle
// of the queue and re-inserts with a fresh seq.

type traceEntry struct {
	when  Time
	seq   uint64
	label string
}

type refItem struct {
	when  Time
	seq   uint64
	index int // heap index, -1 once popped or removed
	fn    func(Time)
}

type refQueue []*refItem

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].when != q[j].when {
		return q[i].when < q[j].when
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *refQueue) Push(x any) {
	it := x.(*refItem)
	it.index = len(*q)
	*q = append(*q, it)
}
func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	it.index = -1
	*q = old[:n-1]
	return it
}

// refEngine is the reference implementation. Its seq counter must advance
// in lockstep with the engine's: both assign one seq per At, in script
// order.
type refEngine struct {
	now Time
	seq uint64
	q   refQueue
}

func (r *refEngine) at(t Time, fn func(Time)) *refItem {
	it := &refItem{when: t, seq: r.seq, fn: fn}
	r.seq++
	heap.Push(&r.q, it)
	return it
}

func (r *refEngine) cancel(it *refItem) {
	heap.Remove(&r.q, it.index)
}

func (r *refEngine) step() {
	it := heap.Pop(&r.q).(*refItem)
	if it.when > r.now {
		r.now = it.when
	}
	it.fn(r.now)
}

func (r *refEngine) runUntil(t Time) {
	// Re-checking the heap top after every dispatch gives the batching
	// semantics for free: events scheduled mid-batch at or before t —
	// including at the current instant — fire in this same call, in seq
	// order.
	for len(r.q) > 0 && r.q[0].when <= t {
		r.step()
	}
	if r.now < t {
		r.now = t
	}
}

// fuzzDelta draws a delay from classes spanning every scale the simulated
// machines use and beyond: zero (same-instant FIFO), under 256 cycles,
// around 2^16, up to about 2^24 and beyond 255<<24 (~14 s at 300 MHz), so
// near and far-future events interleave, tie and get cancelled in one
// queue.
func fuzzDelta(rng *RNG) Cycles {
	switch rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return Cycles(rng.Intn(256))
	case 2:
		return Cycles(256 + rng.Intn(1<<16))
	case 3: // straddle 2^16
		return Cycles(1<<16 - 2 + rng.Intn(4))
	case 4:
		return Cycles(rng.Intn(255 << 24))
	case 5:
		return 255<<24 + Cycles(rng.Intn(1<<20))
	case 6:
		return 255<<24 - 1 - Cycles(rng.Intn(1<<10))
	default:
		return Cycles(rng.Intn(1 << 30))
	}
}

var fuzzLabels = [...]string{"zero", "near", "mid16", "edge16", "mid24", "far+", "far-", "far"}

// TestWheelMatchesReferenceEngine drives the engine and the reference
// engine through the same random At/Cancel/Step/RunUntil scripts, moves
// included, and requires byte-identical (time, seq, label) dispatch traces.
// Some events spawn a same-or-later-instant child from inside their
// callback, so mid-batch scheduling is exercised on both sides. The name
// dates from the timing wheel that used to sit in front of the heap
// (DESIGN.md §7.2); the delay classes still straddle that wheel's level
// boundaries, so a bucketed queue front-end tried again must pass it as is.
func TestWheelMatchesReferenceEngine(t *testing.T) {
	for trial := 0; trial < 12; trial++ {
		rng := NewRNG(uint64(trial) + 0x9E3779B9)
		e := NewEngine(1)
		ref := &refEngine{}

		var engTrace, refTrace []traceEntry

		// One live record mirrors one pending event on both sides. The
		// engine callback marks it dead; by the time any later op can pick
		// it, the reference side has dispatched it too (traces are checked
		// to agree), so its queue index is likewise stale on both sides.
		type liveRec struct {
			ev           *Event
			it           *refItem
			seq          uint64
			label        string
			dead         bool
			engFn, refFn func(Time) // kept so a move can schedule them again
		}
		var live []*liveRec

		// scheduleBoth schedules a matched pair at absolute time at. spawn
		// controls whether the callbacks schedule a child (delay drawn once,
		// at schedule time, so both sides agree) when they fire.
		var scheduleBoth func(at Time, label string, spawn bool) *liveRec
		scheduleBoth = func(at Time, label string, spawn bool) *liveRec {
			rec := &liveRec{label: label}
			var childD Cycles
			if spawn {
				childD = Cycles(rng.Intn(512)) // 0 allowed: same-instant child
			}
			rec.engFn = func(now Time) {
				rec.dead = true
				engTrace = append(engTrace, traceEntry{now, rec.seq, rec.label})
				if spawn {
					cr := &liveRec{label: "child", dead: true} // fire-only
					cr.ev = e.At(now.Add(childD), func(cn Time) {
						engTrace = append(engTrace, traceEntry{cn, cr.seq, "child"})
					})
					cr.seq = cr.ev.seq
				}
			}
			rec.refFn = func(now Time) {
				refTrace = append(refTrace, traceEntry{now, rec.it.seq, rec.label})
				if spawn {
					var cit *refItem
					cit = ref.at(now.Add(childD), func(cn Time) {
						refTrace = append(refTrace, traceEntry{cn, cit.seq, "child"})
					})
				}
			}
			rec.ev = e.At(at, rec.engFn)
			rec.seq = rec.ev.seq
			rec.it = ref.at(at, rec.refFn)
			if rec.seq != rec.it.seq {
				t.Fatalf("trial %d: seq skew at schedule: engine %d, reference %d", trial, rec.seq, rec.it.seq)
			}
			return rec
		}

		// pickLive returns a random still-pending record, compacting dead
		// ones out of the slice as it goes (swap-delete keeps it O(1) and,
		// with the shared rng, deterministic per trial).
		pickLive := func() *liveRec {
			for len(live) > 0 {
				i := rng.Intn(len(live))
				rec := live[i]
				if !rec.dead {
					return rec
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			return nil
		}

		for op := 0; op < 3000; op++ {
			if e.Now() != ref.now {
				t.Fatalf("trial %d op %d: clock skew: engine %d, reference %d", trial, op, e.Now(), ref.now)
			}
			if e.Pending() != ref.q.Len() {
				t.Fatalf("trial %d op %d: pending %d, reference %d", trial, op, e.Pending(), ref.q.Len())
			}
			switch r := rng.Intn(100); {
			case r < 40: // schedule
				k := rng.Intn(len(fuzzLabels)) // label class drawn independently of delta
				d := fuzzDelta(rng)
				live = append(live, scheduleBoth(e.Now().Add(d), fuzzLabels[k], rng.Intn(4) == 0))
			case r < 55: // cancel
				if rec := pickLive(); rec != nil {
					if !e.Cancel(rec.ev) {
						t.Fatalf("trial %d op %d: cancel of live event failed", trial, op)
					}
					ref.cancel(rec.it)
					rec.dead = true
				}
			case r < 70: // move: cancel, then schedule again with a fresh seq on both sides
				if rec := pickLive(); rec != nil {
					at := e.Now().Add(fuzzDelta(rng))
					if !e.Cancel(rec.ev) {
						t.Fatalf("trial %d op %d: cancel of live event failed", trial, op)
					}
					ref.cancel(rec.it)
					rec.ev = e.At(at, rec.engFn)
					rec.it = ref.at(at, rec.refFn)
					rec.seq = rec.ev.seq
					if rec.seq != rec.it.seq {
						t.Fatalf("trial %d op %d: seq skew after move", trial, op)
					}
				}
			case r < 85: // single step
				if e.Pending() > 0 {
					e.Step()
					ref.step()
				}
			default: // batched run
				at := e.Now().Add(fuzzDelta(rng))
				e.RunUntil(at)
				ref.runUntil(at)
			}
		}
		// Drain both sides completely.
		for e.Pending() > 0 {
			e.Step()
			ref.step()
		}
		if ref.q.Len() != 0 {
			t.Fatalf("trial %d: reference still holds %d events after engine drained", trial, ref.q.Len())
		}

		if len(engTrace) != len(refTrace) {
			t.Fatalf("trial %d: engine dispatched %d events, reference %d", trial, len(engTrace), len(refTrace))
		}
		for i := range engTrace {
			if engTrace[i] != refTrace[i] {
				t.Fatalf("trial %d: dispatch %d diverges: engine %+v, reference %+v",
					trial, i, engTrace[i], refTrace[i])
			}
		}
	}
}

// TestEngineHeapMatchesOracle runs a dense script against the same
// reference engine: every delay is under 1000 cycles, so many pending
// events tie or nearly tie, and FIFO tie-breaking and the index
// bookkeeping behind Cancel and moves are hit far more often than under
// the wide delay classes. One op in a hundred is a NIC-style burst: a
// callback schedules 10–49 events at a fixed spacing, as NIC.DeliverBurst
// does, which inserts at the far end of a deep queue many times in a row
// and ties against events already pending. Every step must dispatch the
// same event at the same time on both sides. The name dates from the heap
// the engine's queue once was.
func TestEngineHeapMatchesOracle(t *testing.T) {
	type firing struct {
		id int
		at Time
	}
	for trial := 0; trial < 20; trial++ {
		rng := NewRNG(uint64(trial + 1))
		e := NewEngine(1)
		ref := &refEngine{}

		type liveRec struct {
			id           int
			ev           *Event
			it           *refItem
			dead         bool
			engFn, refFn func(Time)
		}
		var live []*liveRec
		nextID := 0
		var engLast, refLast firing

		// newRec makes a live record whose callbacks log its firing; the
		// caller schedules them.
		newRec := func() *liveRec {
			rec := &liveRec{id: nextID}
			nextID++
			rec.engFn = func(now Time) {
				rec.dead = true
				engLast = firing{rec.id, now}
			}
			rec.refFn = func(now Time) { refLast = firing{rec.id, now} }
			live = append(live, rec)
			return rec
		}
		pickLive := func() *liveRec {
			for len(live) > 0 {
				i := rng.Intn(len(live))
				rec := live[i]
				if !rec.dead {
					return rec
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			return nil
		}
		step := func(op int) {
			engLast, refLast = firing{id: -1}, firing{id: -2}
			e.Step()
			ref.step()
			if engLast != refLast {
				t.Fatalf("trial %d op %d: engine fired %+v, reference %+v", trial, op, engLast, refLast)
			}
		}

		for op := 0; op < 5000; op++ {
			switch r := rng.Intn(100); {
			case r < 44: // schedule; delay 0 allowed: same-timestamp FIFO
				at := e.Now().Add(Cycles(rng.Intn(1000)))
				rec := newRec()
				rec.ev = e.At(at, rec.engFn)
				rec.it = ref.at(at, rec.refFn)
			case r < 45: // burst; spacing 0 allowed: the whole burst at one instant
				at := e.Now().Add(Cycles(rng.Intn(1000)))
				n, gap := 10+rng.Intn(40), Cycles(rng.Intn(25))
				// The engine fires first in each step, so its callback
				// makes the burst's records and the reference's fills in
				// their items before any op can pick one.
				var burst []*liveRec
				trig := newRec()
				engFire, refFire := trig.engFn, trig.refFn
				trig.engFn = func(now Time) {
					engFire(now)
					for i := 0; i < n; i++ {
						rec := newRec()
						rec.ev = e.At(now.Add(Cycles(i)*gap), rec.engFn)
						burst = append(burst, rec)
					}
				}
				trig.refFn = func(now Time) {
					refFire(now)
					for i, rec := range burst {
						rec.it = ref.at(now.Add(Cycles(i)*gap), rec.refFn)
					}
				}
				trig.ev = e.At(at, trig.engFn)
				trig.it = ref.at(at, trig.refFn)
			case r < 60: // cancel
				if rec := pickLive(); rec != nil {
					if !e.Cancel(rec.ev) {
						t.Fatalf("trial %d op %d: cancel of live event %d failed", trial, op, rec.id)
					}
					ref.cancel(rec.it)
					rec.dead = true
				}
			case r < 75: // move: cancel, then schedule again
				if rec := pickLive(); rec != nil {
					at := e.Now().Add(Cycles(rng.Intn(1000)))
					if !e.Cancel(rec.ev) {
						t.Fatalf("trial %d op %d: cancel of live event %d failed", trial, op, rec.id)
					}
					ref.cancel(rec.it)
					rec.ev = e.At(at, rec.engFn)
					rec.it = ref.at(at, rec.refFn)
				}
			default: // step
				if e.Pending() != ref.q.Len() {
					t.Fatalf("trial %d op %d: pending %d, reference %d", trial, op, e.Pending(), ref.q.Len())
				}
				if e.Pending() > 0 {
					step(op)
				}
			}
		}
		for e.Pending() > 0 {
			step(-1)
		}
		if ref.q.Len() != 0 {
			t.Fatalf("trial %d: reference still holds %d events after engine drained", trial, ref.q.Len())
		}
	}
}
