package kernel_test

import (
	"testing"

	"wdmlat/internal/kernel"
	"wdmlat/internal/sim"
)

func TestExecRaisedDispatchBlocksDpcsAndThreads(t *testing.T) {
	b := newBench(t, 1, false)
	var dpcAt, hiAt, sectionEnd sim.Time
	d := kernel.NewDPC("d", kernel.MediumImportance, func(c *kernel.DpcContext) {
		dpcAt = c.Now()
	})
	ev := b.k.NewEvent("hi", kernel.SynchronizationEvent)
	b.k.CreateThread("hi", 28, func(tc *kernel.ThreadContext) {
		tc.Wait(ev)
		hiAt = tc.Now()
	})
	b.k.CreateThread("raiser", 16, func(tc *kernel.ThreadContext) {
		tc.Exec(10_000)
		tc.ExecRaised(kernel.DispatchLevel, 100_000)
		sectionEnd = tc.Now()
	})
	// Mid-section: queue a DPC and wake the priority-28 thread. Neither
	// may run until the raised section ends.
	b.eng.At(50_000, func(sim.Time) {
		b.k.QueueDpc(d)
		b.k.SetEvent(ev)
	})
	b.eng.RunUntil(10_000_000)
	if sectionEnd == 0 || dpcAt == 0 || hiAt == 0 {
		t.Fatalf("incomplete: section=%d dpc=%d hi=%d", sectionEnd, dpcAt, hiAt)
	}
	// Deterministic timeline: three dispatches (worker, hi, raiser) at
	// costSwitch each, then 10k of exec, then the 100k raised section:
	// the section ends at 3*200 + 10000 + 100000 = 110600.
	const rawSectionEnd = 3*costSwitch + 10_000 + 100_000
	if dpcAt < rawSectionEnd {
		t.Fatalf("DPC at %d ran inside the raised section ending %d", dpcAt, rawSectionEnd)
	}
	if hiAt < rawSectionEnd {
		t.Fatalf("priority-28 thread at %d preempted a DISPATCH-level section ending %d", hiAt, rawSectionEnd)
	}
	// DPCs drain before threads once the section drops.
	if dpcAt > hiAt {
		t.Fatalf("DPC at %d after thread at %d", dpcAt, hiAt)
	}
}

func TestExecRaisedDispatchStillPreemptedByIsr(t *testing.T) {
	b := newBench(t, 1, false)
	var isrAt sim.Time
	intr := b.k.Connect(40, 16, "DRV", "_ISR", func(c *kernel.IsrContext) {
		isrAt = c.Now()
	})
	b.k.CreateThread("raiser", 16, func(tc *kernel.ThreadContext) {
		tc.ExecRaised(kernel.DispatchLevel, 300_000)
	})
	b.eng.At(100_000, func(sim.Time) { intr.Assert() })
	b.eng.RunUntil(10_000_000)
	if isrAt == 0 || isrAt > 110_000 {
		t.Fatalf("ISR at %d: interrupts must preempt a DISPATCH-level section", isrAt)
	}
}

func TestExecRaisedHighLevelMasksInterrupts(t *testing.T) {
	b := newBench(t, 1, false)
	var isrAt sim.Time
	intr := b.k.Connect(40, 16, "DRV", "_ISR", func(c *kernel.IsrContext) {
		isrAt = c.Now()
	})
	var sectionEnd sim.Time
	b.k.CreateThread("raiser", 16, func(tc *kernel.ThreadContext) {
		tc.ExecRaised(kernel.HighLevel, 300_000)
		tc.Do(func() { sectionEnd = b.cpu.TSC() })
	})
	b.eng.At(100_000, func(sim.Time) { intr.Assert() })
	b.eng.RunUntil(10_000_000)
	if isrAt == 0 {
		t.Fatal("ISR never ran")
	}
	if isrAt < sectionEnd-1000 {
		t.Fatalf("ISR at %d ran inside a HIGH_LEVEL section ending %d", isrAt, sectionEnd)
	}
}

func TestExecRaisedAccountsCpuTime(t *testing.T) {
	b := newBench(t, 1, false)
	var th *kernel.Thread
	th = b.k.CreateThread("raiser", 16, func(tc *kernel.ThreadContext) {
		tc.Exec(10_000)
		tc.ExecRaised(kernel.DispatchLevel, 40_000)
	})
	b.eng.RunUntil(10_000_000)
	if got := th.CPUTime(); got != 50_000 {
		t.Fatalf("cpu time = %d, want 50000", got)
	}
}

func TestExecRaisedValidation(t *testing.T) {
	b := newBench(t, 1, false)
	done := make(chan error, 1)
	b.k.CreateThread("bad", 16, func(tc *kernel.ThreadContext) {
		defer func() {
			if recover() == nil {
				done <- nil
			} else {
				done <- errSentinel
			}
		}()
		tc.ExecRaised(kernel.PassiveLevel, 1000)
	})
	b.eng.RunUntil(1_000_000)
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("ExecRaised at PASSIVE should panic")
		}
	default:
		t.Fatal("thread never reached the call")
	}
}

var errSentinel = sentinelError{}

type sentinelError struct{}

func (sentinelError) Error() string { return "panicked" }
