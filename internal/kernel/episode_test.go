package kernel

import (
	"fmt"
	"testing"

	"wdmlat/internal/sim"
)

// refEpisode is one pending episode of the reference model, named by the
// unique function label it was injected with.
type refEpisode struct {
	kind EpisodeKind
	fn   string
}

// episodeRef is a reference model of the single pending-episode list the
// kernel used before it kept one FIFO queue per kind: every injected
// episode joins one list in injection order, and a dispatch-loop pass
// starts the first listed episode of the first admissible kind. A masked
// window is admissible while no ISR is in flight, a scheduler lock only
// over threads, and a masked window is tried first.
type episodeRef struct {
	pending []refEpisode
	seen    map[string]bool // labels of episodes already started

	// Coverage of the situations the per-kind queues could get wrong.
	maxBacklog [2]int // deepest pending backlog per kind
	mixed      int    // starts over threads while both kinds were pending
	heldByISR  int    // observations of a masked window held off by an ISR
}

func refAdmits(kind EpisodeKind, top int) bool {
	if kind == MaskInterrupts {
		return top < levelIsrBase
	}
	return top < levelSchedLock
}

func (r *episodeRef) inject(t *testing.T, k *Kernel, kind EpisodeKind, d sim.Cycles, fn string) {
	t.Helper()
	if d > 0 {
		r.pending = append(r.pending, refEpisode{kind, fn})
		n := 0
		for _, ep := range r.pending {
			if ep.kind == kind {
				n++
			}
		}
		r.maxBacklog[kind] = max(r.maxBacklog[kind], n)
	}
	k.InjectEpisode(kind, d, "EP", fn)
	r.observe(t, k)
}

// observe reads the occupancy stack. Every episode on it that was not
// there at the last observation started since, and the stack holds them
// in start order from the bottom up, each above the level it was admitted
// over. Once the dispatch loop has returned, no pending episode may be
// admissible at the top level.
func (r *episodeRef) observe(t *testing.T, k *Kernel) {
	t.Helper()
	below := levelThread
	for _, act := range k.stack {
		if act.kind == actEpisode && !r.seen[act.frame.Function] {
			r.start(t, act.frame.Function, below)
		}
		below = act.level
	}
	if got := k.PendingEpisodes(); got != len(r.pending) {
		t.Fatalf("PendingEpisodes() = %d, the reference holds %d", got, len(r.pending))
	}
	top := k.topLevel()
	for _, ep := range r.pending {
		if refAdmits(ep.kind, top) {
			t.Fatalf("%s (%v) is still pending over level %d, which admits it", ep.fn, ep.kind, top)
		}
		if ep.kind == MaskInterrupts && top >= levelIsrBase && top < levelIntMask {
			r.heldByISR++
		}
	}
}

// start checks that the reference would start fn over level top.
func (r *episodeRef) start(t *testing.T, fn string, top int) {
	t.Helper()
	r.seen[fn] = true
	want, kinds := -1, 0
	for _, kind := range []EpisodeKind{MaskInterrupts, LockScheduler} {
		first := -1
		for i, ep := range r.pending {
			if ep.kind == kind {
				first = i
				break
			}
		}
		if first >= 0 {
			kinds++
			if want < 0 && refAdmits(kind, top) {
				want = first
			}
		}
	}
	if kinds == 2 && top < levelSchedLock {
		r.mixed++
	}
	if want < 0 {
		t.Fatalf("%s started over level %d, where the reference starts nothing", fn, top)
	}
	if got := r.pending[want].fn; got != fn {
		t.Fatalf("%s started over level %d; the reference starts %s (%v)", fn, top, got, r.pending[want].kind)
	}
	r.pending = append(r.pending[:want], r.pending[want+1:]...)
}

// TestEpisodeQueuesKeepAdmissionOrder runs random programs that interleave
// episodes of both kinds, some of zero length, with interrupts whose ISRs
// hold the CPU above the masked windows' admission level, DPCs that hold
// it at dispatch level, and thread wakeups that cost context switches. The
// order in which episodes start, read from the occupancy stack after every
// injection and every engine step, must match the reference model of the
// single pending list.
func TestEpisodeQueuesKeepAdmissionOrder(t *testing.T) {
	const injectUntil, horizon = 6_000_000, 36_000_000 // 20 ms of traffic, then drain
	var cover episodeRef
	for seed := uint64(1); seed <= 24; seed++ {
		eng, k := newWhiteboxKernel(t, seed)
		rng := sim.NewRNG(seed)
		r := &episodeRef{seen: map[string]bool{}}

		var dpcs []*DPC
		for i, imp := range []Importance{MediumImportance, MediumImportance, HighImportance} {
			dpcs = append(dpcs, NewDPC(fmt.Sprintf("dpc%d", i), imp, func(c *DpcContext) {
				c.Charge(sim.Cycles(5_000 + rng.Intn(20_000)))
			}))
		}
		var irqs []*Interrupt
		for i, irql := range []IRQL{5, 12} {
			irqs = append(irqs, k.Connect(40+i, irql, "DRV", "_ISR", func(c *IsrContext) {
				c.Charge(sim.Cycles(2_000 + rng.Intn(18_000)))
				if rng.Bool(0.5) {
					c.QueueDpc(dpcs[rng.Intn(len(dpcs))])
				}
			}))
		}
		var wake []*Event
		for i, prio := range []int{10, 24} {
			ev := k.NewEvent("wake", SynchronizationEvent)
			wake = append(wake, ev)
			waiting := false
			k.CreateStepThread(fmt.Sprintf("t%d", i), prio, func(tc *ThreadContext) {
				if waiting = !waiting; waiting {
					tc.Wait(ev)
				} else {
					tc.Exec(sim.Cycles(5_000 + rng.Intn(50_000)))
				}
			})
		}

		injected := 0
		inject := func() {
			kind, d := MaskInterrupts, sim.Cycles(1_000+rng.Intn(20_000))
			if rng.Bool(0.6) {
				kind, d = LockScheduler, sim.Cycles(1_000+rng.Intn(40_000))
			}
			if rng.Bool(0.1) {
				d = 0 // dropped: never pending, never started, never counted
			} else {
				injected++
			}
			r.inject(t, k, kind, d, fmt.Sprintf("_E%d", injected))
		}
		// Seeds cycle through four loads, from three times what the CPU
		// can serve, where backlogs of both kinds build up, to under half,
		// where it keeps falling back to threads.
		maxGap := 10_000 << (seed % 4)
		var kick func(sim.Time)
		kick = func(now sim.Time) {
			switch a := rng.Intn(10); {
			case a < 4:
				inject()
			case a < 6:
				// An interrupt and the episodes its device's burst
				// response injects while the ISR holds the CPU.
				irqs[rng.Intn(len(irqs))].Assert()
				for n := rng.Intn(4); n > 0; n-- {
					inject()
				}
			case a < 8:
				k.QueueDpc(dpcs[rng.Intn(len(dpcs))])
			default:
				k.SetEvent(wake[rng.Intn(len(wake))])
			}
			if now < injectUntil {
				eng.After(sim.Cycles(1+rng.Intn(maxGap)), kick)
			}
		}
		eng.After(1, kick)
		for eng.Now() < horizon && eng.Step() {
			r.observe(t, k)
		}

		if len(r.pending) != 0 {
			t.Fatalf("seed %d: %d episodes never started", seed, len(r.pending))
		}
		if len(r.seen) != injected {
			t.Fatalf("seed %d: %d episodes started, %d of non-zero length injected", seed, len(r.seen), injected)
		}
		if got := k.Counters().Episodes; got != uint64(injected) {
			t.Fatalf("seed %d: Counters().Episodes = %d, want %d", seed, got, injected)
		}
		for kind, n := range r.maxBacklog {
			cover.maxBacklog[kind] = max(cover.maxBacklog[kind], n)
		}
		cover.mixed += r.mixed
		cover.heldByISR += r.heldByISR
	}
	// The programs must reach the cases a wrong queue discipline would
	// get wrong: backlogs within each kind, both kinds pending at a start,
	// and masked windows waiting on an ISR.
	if cover.maxBacklog[MaskInterrupts] < 3 || cover.maxBacklog[LockScheduler] < 3 ||
		cover.mixed == 0 || cover.heldByISR == 0 {
		t.Fatalf("programs too tame: backlog %v, %d mixed starts, %d ISR holds",
			cover.maxBacklog, cover.mixed, cover.heldByISR)
	}
	t.Logf("deepest backlog (mask, lock) %v, %d mixed starts, %d ISR holds",
		cover.maxBacklog, cover.mixed, cover.heldByISR)
}
