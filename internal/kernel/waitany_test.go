package kernel_test

import (
	"testing"

	"wdmlat/internal/kernel"
	"wdmlat/internal/sim"
)

func TestWaitAnyReturnsSignaledIndex(t *testing.T) {
	b := newBench(t, 1, false)
	a := b.k.NewEvent("a", kernel.SynchronizationEvent)
	c := b.k.NewEvent("c", kernel.SynchronizationEvent)
	var got []int
	b.k.CreateThread("w", 20, func(tc *kernel.ThreadContext) {
		for i := 0; i < 3; i++ {
			got = append(got, tc.WaitAny(a, c))
		}
	})
	b.eng.At(10_000, func(sim.Time) { b.k.SetEvent(c) })
	b.eng.At(20_000, func(sim.Time) { b.k.SetEvent(a) })
	b.eng.At(30_000, func(sim.Time) { b.k.SetEvent(c) })
	b.eng.RunUntil(1_000_000)
	want := []int{1, 0, 1}
	if len(got) != len(want) {
		t.Fatalf("indices = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("indices = %v, want %v", got, want)
		}
	}
}

func TestWaitAnyImmediateSatisfactionPrefersEarlierObject(t *testing.T) {
	b := newBench(t, 1, false)
	a := b.k.NewEvent("a", kernel.SynchronizationEvent)
	c := b.k.NewEvent("c", kernel.SynchronizationEvent)
	b.k.SetEvent(a)
	b.k.SetEvent(c)
	var idx int
	b.k.CreateThread("w", 20, func(tc *kernel.ThreadContext) {
		idx = tc.WaitAny(a, c)
	})
	b.eng.RunUntil(1_000_000)
	if idx != 0 {
		t.Fatalf("index = %d, want 0 (argument order wins ties)", idx)
	}
	// Only the first event's signal was consumed.
	if a.Signaled() {
		t.Fatal("event a should have been consumed")
	}
	if !c.Signaled() {
		t.Fatal("event c should remain signaled")
	}
}

func TestWaitAnyDeregistersFromLosers(t *testing.T) {
	b := newBench(t, 1, false)
	a := b.k.NewEvent("a", kernel.SynchronizationEvent)
	c := b.k.NewEvent("c", kernel.SynchronizationEvent)
	woke := 0
	b.k.CreateThread("w", 20, func(tc *kernel.ThreadContext) {
		tc.WaitAny(a, c)
		woke++
		tc.Exec(1_000_000) // busy: no second wait outstanding
	})
	b.eng.At(10_000, func(sim.Time) { b.k.SetEvent(a) })
	// c fires later; the thread must NOT be woken through its stale
	// registration — the signal latches instead.
	b.eng.At(20_000, func(sim.Time) { b.k.SetEvent(c) })
	b.eng.RunUntil(5_000_000)
	if woke != 1 {
		t.Fatalf("woke %d times", woke)
	}
	if !c.Signaled() {
		t.Fatal("c's signal should have latched (no waiter registered)")
	}
}

// TestWaitAnyRepeatedObject: a set that names one object twice registers
// the thread on it twice. A wake through that object must report its first
// position and drop every registration, and so must a timeout, or a later
// signal on the object wakes the thread out of an unrelated wait.
func TestWaitAnyRepeatedObject(t *testing.T) {
	b := newBench(t, 1, false)
	ev := b.k.NewEvent("ev", kernel.SynchronizationEvent)
	other := b.k.NewEvent("other", kernel.SynchronizationEvent)
	idx, strayWake := -1, false
	b.k.CreateThread("w", 20, func(tc *kernel.ThreadContext) {
		idx = tc.WaitAny(ev, other, ev)
		tc.Wait(other) // other is never set
		strayWake = true
	})
	b.eng.At(10_000, func(sim.Time) { b.k.SetEvent(ev) })
	b.eng.At(20_000, func(sim.Time) { b.k.SetEvent(ev) })
	b.eng.RunUntil(1_000_000)
	if idx != 0 {
		t.Errorf("index = %d, want 0 (the object's first position in the set)", idx)
	}
	if strayWake {
		t.Error("Wait(other) returned though other was never set: a stale registration on ev woke it")
	}
	if !ev.Signaled() {
		t.Error("the second SetEvent(ev) should latch: no waiter is left on ev")
	}

	timedOut := b.k.NewEvent("timedOut", kernel.SynchronizationEvent)
	var st kernel.WaitStatus
	b.k.CreateThread("t", 20, func(tc *kernel.ThreadContext) {
		_, st = tc.WaitAnyTimeout(50_000, timedOut, timedOut)
	})
	b.eng.RunUntil(2_000_000)
	if st != kernel.WaitTimedOut {
		t.Fatalf("status = %v, want timeout", st)
	}
	b.k.SetEvent(timedOut)
	if !timedOut.Signaled() {
		t.Error("a registration left by the timed-out wait consumed the signal")
	}
}

func TestWaitAnyTimeout(t *testing.T) {
	b := newBench(t, 1, false)
	a := b.k.NewEvent("a", kernel.SynchronizationEvent)
	c := b.k.NewEvent("c", kernel.SynchronizationEvent)
	var idx int
	var st kernel.WaitStatus
	b.k.CreateThread("w", 20, func(tc *kernel.ThreadContext) {
		idx, st = tc.WaitAnyTimeout(50_000, a, c)
	})
	b.eng.RunUntil(1_000_000)
	if st != kernel.WaitTimedOut || idx != -1 {
		t.Fatalf("idx=%d status=%v, want -1/timeout", idx, st)
	}
	// Timed-out registrations must be gone: later signals latch.
	b.k.SetEvent(a)
	if !a.Signaled() {
		t.Fatal("stale registration consumed the signal")
	}
}

func TestWaitAnyWithTimerObject(t *testing.T) {
	b := newBench(t, 1, true)
	ev := b.k.NewEvent("never", kernel.SynchronizationEvent)
	tm := b.k.NewTimer("tick")
	var idx int
	b.k.CreateThread("w", 20, func(tc *kernel.ThreadContext) {
		tc.SetTimer(tm, 2*tickPeriod, nil)
		idx = tc.WaitAny(ev, tm)
	})
	b.eng.RunUntil(20 * tickPeriod)
	if idx != 1 {
		t.Fatalf("index = %d, want 1 (the timer)", idx)
	}
}

func TestWaitAnyMixedObjectKinds(t *testing.T) {
	b := newBench(t, 1, false)
	sem := b.k.NewSemaphore(0, 4)
	mu := b.k.NewMutex("m")
	ev := b.k.NewEvent("e", kernel.SynchronizationEvent)
	var order []int
	b.k.CreateThread("w", 20, func(tc *kernel.ThreadContext) {
		order = append(order, tc.WaitAny(ev, sem, mu)) // mutex free: index 2
		tc.ReleaseMutex(mu)
		order = append(order, tc.WaitAny(ev, sem)) // semaphore released below
	})
	b.eng.At(10_000, func(sim.Time) { b.k.ReleaseSemaphore(sem, 1) })
	b.eng.RunUntil(1_000_000)
	if len(order) != 2 || order[0] != 2 || order[1] != 1 {
		t.Fatalf("order = %v, want [2 1]", order)
	}
}
