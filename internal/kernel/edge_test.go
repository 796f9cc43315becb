package kernel_test

import (
	"testing"

	"wdmlat/internal/kernel"
	"wdmlat/internal/sim"
)

func TestSemaphoreLimitClamps(t *testing.T) {
	b := newBench(t, 1, false)
	sem := b.k.NewSemaphore(0, 2)
	b.k.ReleaseSemaphore(sem, 5)
	if sem.Count() != 2 {
		t.Fatalf("count = %d, want clamp at limit 2", sem.Count())
	}
	entered := 0
	for i := 0; i < 3; i++ {
		b.k.CreateThread("c", 15, func(tc *kernel.ThreadContext) {
			tc.Wait(sem)
			entered++
		})
	}
	b.eng.RunUntil(1_000_000)
	if entered != 2 {
		t.Fatalf("entered = %d, want 2 (clamped units)", entered)
	}
}

func TestSemaphoreValidation(t *testing.T) {
	b := newBench(t, 1, false)
	for _, fn := range []func(){
		func() { b.k.NewSemaphore(-1, 5) },
		func() { b.k.NewSemaphore(0, 0) },
		func() { b.k.NewSemaphore(6, 5) },
		func() { b.k.ReleaseSemaphore(b.k.NewSemaphore(0, 5), 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid semaphore op should panic")
				}
			}()
			fn()
		}()
	}
}

func TestMutexReleaseByNonOwnerPanics(t *testing.T) {
	// The release executes in kernel context, so the bug check surfaces
	// through the engine (the simulated BSOD), not inside the offending
	// thread's goroutine.
	b := newBench(t, 1, false)
	m := b.k.NewMutex("m")
	b.k.CreateThread("owner", 15, func(tc *kernel.ThreadContext) {
		tc.Wait(m)
		tc.Exec(1_000_000)
	})
	b.k.CreateThread("thief", 14, func(tc *kernel.ThreadContext) {
		tc.Exec(1000) // let owner acquire first
		tc.ReleaseMutex(m)
	})
	panicked := func() (p bool) {
		defer func() { p = recover() != nil }()
		b.eng.RunUntil(10_000_000)
		return false
	}()
	if !panicked {
		t.Fatal("release by non-owner should bug-check")
	}
}

func TestDpcRequeueFromOwnBody(t *testing.T) {
	// The self-rearming DPC pattern: a DPC that requeues itself runs once
	// per drain pass, not in an infinite inner loop.
	b := newBench(t, 1, false)
	runs := 0
	var d *kernel.DPC
	d = kernel.NewDPC("self", kernel.MediumImportance, func(c *kernel.DpcContext) {
		runs++
		c.Charge(50_000)
		if runs < 5 {
			c.QueueDpc(d)
		}
	})
	b.k.QueueDpc(d)
	b.eng.RunUntil(1_000_000)
	if runs != 5 {
		t.Fatalf("self-requeueing DPC ran %d times, want 5", runs)
	}
}

func TestTimerRearmWhileDpcQueued(t *testing.T) {
	// KeSetTimer on a timer whose previous DPC is still queued must not
	// double-queue the DPC.
	b := newBench(t, 1, true)
	runs := 0
	d := kernel.NewDPC("t", kernel.MediumImportance, func(c *kernel.DpcContext) { runs++ })
	tm := b.k.NewTimer("t")
	b.eng.At(100, func(sim.Time) { b.k.SetTimer(tm, tickPeriod/2, d) })
	// Re-arm immediately after the expected fire, before the engine lets
	// the DPC run... the kernel processes the tick atomically, so arm at
	// the same timestamp as the tick instead.
	b.eng.At(tickPeriod, func(sim.Time) { b.k.SetTimer(tm, tickPeriod/2, d) })
	b.eng.RunUntil(10 * tickPeriod)
	if runs != 2 {
		t.Fatalf("DPC ran %d times, want 2 (one per firing)", runs)
	}
}

func TestEpisodeWhileIdleRunsImmediately(t *testing.T) {
	b := newBench(t, 1, false)
	b.eng.At(1000, func(sim.Time) {
		b.k.InjectEpisode(kernel.LockScheduler, 50_000, "VMM", "_X")
	})
	b.eng.RunUntil(100_000)
	ctr := b.k.Counters()
	if ctr.Episodes != 1 {
		t.Fatalf("episodes = %d", ctr.Episodes)
	}
	if ctr.EpisodeCycles != 50_000 {
		t.Fatalf("episode cycles = %d, want 50000", ctr.EpisodeCycles)
	}
	if b.k.PendingEpisodes() != 0 {
		t.Fatal("episode still pending")
	}
}

func TestZeroDurationEpisodeIgnored(t *testing.T) {
	b := newBench(t, 1, false)
	b.k.InjectEpisode(kernel.LockScheduler, 0, "VMM", "_X")
	if b.k.PendingEpisodes() != 0 || b.k.Counters().Episodes != 0 {
		t.Fatal("zero-duration episode should be dropped")
	}
}

func TestShutdownWithArmedTimersAndWaiters(t *testing.T) {
	b := newBench(t, 1, true)
	ev := b.k.NewEvent("never", kernel.SynchronizationEvent)
	tm := b.k.NewTimer("armed")
	d := kernel.NewDPC("d", kernel.MediumImportance, func(c *kernel.DpcContext) {})
	for i := 0; i < 3; i++ {
		b.k.CreateThread("stuck", 15, func(tc *kernel.ThreadContext) {
			tc.SetTimer(tm, 100*tickPeriod, d)
			tc.Wait(ev)
		})
	}
	b.eng.RunUntil(5 * tickPeriod)
	b.k.Shutdown() // must not hang or panic with armed timers outstanding
}

func TestSleepZeroYieldsToPeer(t *testing.T) {
	b := newBench(t, 1, false)
	var order []string
	b.k.CreateThread("a", 10, func(tc *kernel.ThreadContext) {
		order = append(order, "a1")
		tc.Sleep(0)
		order = append(order, "a2")
	})
	b.k.CreateThread("b", 10, func(tc *kernel.ThreadContext) {
		order = append(order, "b")
	})
	b.eng.RunUntil(1_000_000)
	want := []string{"a1", "b", "a2"}
	if len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestExecDistUsesKernelStream(t *testing.T) {
	b := newBench(t, 1, false)
	var took sim.Time
	b.k.CreateThread("d", 15, func(tc *kernel.ThreadContext) {
		start := tc.Now()
		tc.ExecDist(sim.Uniform{Lo: 1000, Hi: 2000})
		took = tc.Now() - start
	})
	b.eng.RunUntil(1_000_000)
	if took < 1000 || took > 2000 {
		t.Fatalf("ExecDist consumed %d cycles, want within [1000,2000]", took)
	}
}

func TestConnectDuplicateVectorPanics(t *testing.T) {
	b := newBench(t, 1, false)
	b.k.Connect(40, 16, "A", "_ISR", func(c *kernel.IsrContext) {})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate vector should panic")
		}
	}()
	b.k.Connect(40, 17, "B", "_ISR", func(c *kernel.IsrContext) {})
}

func TestDisconnectFreesVector(t *testing.T) {
	b := newBench(t, 1, false)
	intr := b.k.Connect(40, 16, "A", "_ISR", func(c *kernel.IsrContext) {})
	b.k.Disconnect(intr)
	if b.k.InterruptForVector(40) != nil {
		t.Fatal("vector still connected")
	}
	// Reconnecting must succeed.
	b.k.Connect(40, 16, "B", "_ISR", func(c *kernel.IsrContext) {})
}

func TestSpuriousAssertCounted(t *testing.T) {
	b := newBench(t, 1, false)
	// Assert twice while masked: the second is spurious (level-triggered
	// line already pending).
	intr := b.k.Connect(40, 16, "A", "_ISR", func(c *kernel.IsrContext) {})
	b.eng.At(100, func(sim.Time) {
		b.k.InjectEpisode(kernel.MaskInterrupts, 100_000, "VXD", "_X")
	})
	b.eng.At(200, func(sim.Time) { intr.Assert() })
	b.eng.At(300, func(sim.Time) { intr.Assert() })
	b.eng.RunUntil(1_000_000)
	if intr.Asserts() != 1 || intr.Spurious() != 1 {
		t.Fatalf("asserts = %d spurious = %d, want 1/1", intr.Asserts(), intr.Spurious())
	}
	if got := b.k.Counters().Interrupts; got != 1 {
		t.Fatalf("accepted interrupts = %d, want 1 (assertions coalesced)", got)
	}
}
