package kernel_test

import (
	"testing"

	"wdmlat/internal/cpu"
	"wdmlat/internal/kernel"
	"wdmlat/internal/sim"
)

// Deterministic cost configuration so tests can do exact arithmetic.
const (
	costIsrEntry = 100
	costIsrExit  = 50
	costDpcDisp  = 30
	costTick     = 40
	costTimer    = 20
	costSwitch   = 200
	quantum      = 100_000
	clockVector  = 32
	tickPeriod   = 300_000 // 1 ms at 300 MHz
)

func testConfig() kernel.Config {
	return kernel.Config{
		Name:           "testkernel",
		IsrEntry:       sim.Constant(costIsrEntry),
		IsrExit:        sim.Constant(costIsrExit),
		DpcDispatch:    sim.Constant(costDpcDisp),
		ClockTick:      sim.Constant(costTick),
		TimerFire:      sim.Constant(costTimer),
		ContextSwitch:  sim.Constant(costSwitch),
		Quantum:        quantum,
		WorkerPriority: kernel.RealtimeDefault,
	}
}

// bench is a minimal simulated machine: engine, CPU, booted kernel, and a
// self-rescheduling PIT that asserts the clock vector every tick.
type bench struct {
	eng *sim.Engine
	cpu *cpu.CPU
	k   *kernel.Kernel
	pit *kernel.Interrupt
}

func newBench(t *testing.T, seed uint64, withClock bool) *bench {
	t.Helper()
	eng := sim.NewEngine(seed)
	c := cpu.New(eng, sim.DefaultFreq)
	k := kernel.New(eng, c, testConfig())
	k.Boot(clockVector, tickPeriod)
	b := &bench{eng: eng, cpu: c, k: k}
	b.pit = kernelInterrupt(k, clockVector)
	if withClock {
		var tick func(sim.Time)
		tick = func(sim.Time) {
			b.pit.Assert()
			eng.After(tickPeriod, tick)
		}
		eng.After(tickPeriod, tick)
	}
	t.Cleanup(k.Shutdown)
	return b
}

// kernelInterrupt fetches the clock interrupt object so tests can assert it
// manually. The kernel installed it at Boot.
func kernelInterrupt(k *kernel.Kernel, vector int) *kernel.Interrupt {
	// The kernel does not expose its interrupt table; reconnecting would
	// panic. Instead we look it up through a tiny exported helper.
	return k.InterruptForVector(vector)
}

func TestThreadExecAdvancesTime(t *testing.T) {
	b := newBench(t, 1, false)
	var started, finished sim.Time
	b.k.CreateThread("worker1", kernel.NormalPriority, func(tc *kernel.ThreadContext) {
		started = tc.Now()
		tc.Exec(10_000)
		finished = tc.Now()
	})
	b.eng.RunUntil(1_000_000)
	// The Boot-created work-item worker dispatches first (RT default
	// priority), immediately blocks on its queue, and then our thread gets
	// the CPU: two context switches from time zero.
	if started != 2*costSwitch {
		t.Fatalf("thread started at %d, want %d (two context switches)", started, 2*costSwitch)
	}
	if got := finished - started; got != 10_000 {
		t.Fatalf("exec took %d cycles, want 10000", got)
	}
}

func TestThreadPriorityPreemption(t *testing.T) {
	b := newBench(t, 1, false)
	var order []string
	done := b.k.NewEvent("hi-go", kernel.SynchronizationEvent)

	b.k.CreateThread("low", 8, func(tc *kernel.ThreadContext) {
		order = append(order, "low-start")
		tc.SetEvent(done) // readies the high-priority thread: must preempt us
		order = append(order, "low-after-set")
		tc.Exec(1000)
		order = append(order, "low-done")
	})
	b.k.CreateThread("high", 20, func(tc *kernel.ThreadContext) {
		tc.Wait(done)
		order = append(order, "high-ran")
	})

	b.eng.RunUntil(10_000_000)
	// KeSetEvent that readies a higher-priority thread preempts the setter
	// before the call returns, so "high-ran" precedes "low-after-set".
	want := []string{"low-start", "high-ran", "low-after-set", "low-done"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestRoundRobinAtSamePriority(t *testing.T) {
	b := newBench(t, 1, false)
	var aDone, bDone sim.Time
	b.k.CreateThread("rrA", 10, func(tc *kernel.ThreadContext) {
		tc.Exec(quantum * 3)
		aDone = tc.Now()
	})
	b.k.CreateThread("rrB", 10, func(tc *kernel.ThreadContext) {
		tc.Exec(quantum * 3)
		bDone = tc.Now()
	})
	b.eng.RunUntil(100 * quantum)
	if aDone == 0 || bDone == 0 {
		t.Fatal("threads did not finish")
	}
	// With round-robin they interleave: both finish within one quantum (plus
	// switch costs) of each other, rather than serially (3 quanta apart).
	gap := bDone - aDone
	if gap < 0 {
		gap = -gap
	}
	if sim.Cycles(gap) > quantum+20*costSwitch {
		t.Fatalf("finish gap %d implies FIFO, not round-robin", gap)
	}
}

func TestNoRoundRobinAcrossPriorities(t *testing.T) {
	b := newBench(t, 1, false)
	var loRan bool
	b.k.CreateThread("hi", 12, func(tc *kernel.ThreadContext) {
		tc.Exec(quantum * 4)
		if loRan {
			t.Error("lower-priority thread ran while higher was runnable")
		}
	})
	b.k.CreateThread("lo", 11, func(tc *kernel.ThreadContext) {
		loRan = true
	})
	b.eng.RunUntil(10 * quantum)
	if !loRan {
		t.Fatal("low thread never ran")
	}
}

func TestSynchronizationEventAutoClears(t *testing.T) {
	b := newBench(t, 1, false)
	ev := b.k.NewEvent("sync", kernel.SynchronizationEvent)
	woken := 0
	for i := 0; i < 2; i++ {
		b.k.CreateThread("waiter", 15, func(tc *kernel.ThreadContext) {
			tc.Wait(ev)
			woken++
		})
	}
	b.eng.At(1000, func(sim.Time) { b.k.SetEvent(ev) })
	b.eng.RunUntil(1_000_000)
	if woken != 1 {
		t.Fatalf("sync event woke %d waiters, want exactly 1", woken)
	}
	if ev.Signaled() {
		t.Fatal("sync event should be unsignaled after waking a waiter")
	}
}

func TestNotificationEventWakesAllAndLatches(t *testing.T) {
	b := newBench(t, 1, false)
	ev := b.k.NewEvent("notif", kernel.NotificationEvent)
	woken := 0
	for i := 0; i < 3; i++ {
		b.k.CreateThread("waiter", 15, func(tc *kernel.ThreadContext) {
			tc.Wait(ev)
			woken++
		})
	}
	b.eng.At(1000, func(sim.Time) { b.k.SetEvent(ev) })
	b.eng.RunUntil(1_000_000)
	if woken != 3 {
		t.Fatalf("notification event woke %d waiters, want 3", woken)
	}
	if !ev.Signaled() {
		t.Fatal("notification event should stay signaled")
	}
	// A later waiter passes straight through.
	passed := false
	b.eng.At(2_000_000, func(sim.Time) {
		b.k.CreateThread("late", 15, func(tc *kernel.ThreadContext) {
			tc.Wait(ev)
			passed = true
		})
	})
	b.eng.RunUntil(3_000_000)
	if !passed {
		t.Fatal("latched notification event did not satisfy a later wait")
	}
}

func TestEventSetWithNoWaitersLatchesOnce(t *testing.T) {
	b := newBench(t, 1, false)
	ev := b.k.NewEvent("sync", kernel.SynchronizationEvent)
	b.k.SetEvent(ev)
	if !ev.Signaled() {
		t.Fatal("set with no waiters should latch")
	}
	got := 0
	b.k.CreateThread("w", 15, func(tc *kernel.ThreadContext) {
		tc.Wait(ev) // satisfied immediately, consumes the signal
		got++
	})
	b.eng.RunUntil(1_000_000)
	if got != 1 {
		t.Fatal("waiter not satisfied by latched signal")
	}
	if ev.Signaled() {
		t.Fatal("sync event must auto-clear on consumption")
	}
}

func TestSemaphore(t *testing.T) {
	b := newBench(t, 1, false)
	sem := b.k.NewSemaphore(0, 10)
	entered := 0
	for i := 0; i < 3; i++ {
		b.k.CreateThread("consumer", 15, func(tc *kernel.ThreadContext) {
			tc.Wait(sem)
			entered++
		})
	}
	b.eng.At(1000, func(sim.Time) { b.k.ReleaseSemaphore(sem, 2) })
	b.eng.RunUntil(1_000_000)
	if entered != 2 {
		t.Fatalf("semaphore admitted %d, want 2", entered)
	}
	b.eng.At(2_000_000, func(sim.Time) { b.k.ReleaseSemaphore(sem, 1) })
	b.eng.RunUntil(3_000_000)
	if entered != 3 {
		t.Fatalf("semaphore admitted %d, want 3", entered)
	}
	if sem.Count() != 0 {
		t.Fatalf("count = %d, want 0", sem.Count())
	}
}

func TestMutexOwnershipAndRecursion(t *testing.T) {
	b := newBench(t, 1, false)
	m := b.k.NewMutex("m")
	var order []string
	b.k.CreateThread("first", 15, func(tc *kernel.ThreadContext) {
		tc.Wait(m)
		tc.Wait(m) // recursive acquire must not deadlock
		order = append(order, "first-owns")
		tc.Exec(5000)
		tc.ReleaseMutex(m)
		order = append(order, "first-released-once")
		tc.Exec(5000)
		tc.ReleaseMutex(m)
	})
	b.k.CreateThread("second", 15, func(tc *kernel.ThreadContext) {
		tc.Exec(100) // let first acquire
		tc.Wait(m)
		order = append(order, "second-owns")
		tc.ReleaseMutex(m)
	})
	b.eng.RunUntil(10_000_000)
	want := []string{"first-owns", "first-released-once", "second-owns"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if m.Owner() != nil {
		t.Fatal("mutex should end unowned")
	}
}

func TestWaitTimeout(t *testing.T) {
	b := newBench(t, 1, false)
	ev := b.k.NewEvent("never", kernel.SynchronizationEvent)
	var status kernel.WaitStatus
	var woke sim.Time
	b.k.CreateThread("w", 15, func(tc *kernel.ThreadContext) {
		status = tc.WaitTimeout(ev, 50_000)
		woke = tc.Now()
	})
	b.eng.RunUntil(10_000_000)
	if status != kernel.WaitTimedOut {
		t.Fatalf("status = %v, want timeout", status)
	}
	// Wait begins after two context switches (worker first, then us);
	// timeout fires 50k later; the thread needs another switch to resume.
	want := sim.Time(2*costSwitch + 50_000 + costSwitch)
	if woke != want {
		t.Fatalf("woke at %d, want %d", woke, want)
	}
}

func TestWaitTimeoutRaceWithSignal(t *testing.T) {
	b := newBench(t, 1, false)
	ev := b.k.NewEvent("raced", kernel.SynchronizationEvent)
	var status kernel.WaitStatus
	b.k.CreateThread("w", 15, func(tc *kernel.ThreadContext) {
		status = tc.WaitTimeout(ev, 50_000)
	})
	// Signal well before the timeout.
	b.eng.At(10_000, func(sim.Time) { b.k.SetEvent(ev) })
	b.eng.RunUntil(10_000_000)
	if status != kernel.WaitSuccess {
		t.Fatalf("status = %v, want success", status)
	}
}

func TestSleep(t *testing.T) {
	b := newBench(t, 1, false)
	var before, after sim.Time
	b.k.CreateThread("sleeper", 15, func(tc *kernel.ThreadContext) {
		before = tc.Now()
		tc.Sleep(30_000)
		after = tc.Now()
	})
	b.eng.RunUntil(10_000_000)
	elapsed := after - before
	if sim.Cycles(elapsed) < 30_000 || sim.Cycles(elapsed) > 30_000+2*costSwitch {
		t.Fatalf("sleep elapsed %d, want ~30000", elapsed)
	}
}

func TestDpcRunsAfterIsrAndFIFO(t *testing.T) {
	b := newBench(t, 1, false)
	var order []string
	d1 := kernel.NewDPC("d1", kernel.MediumImportance, func(c *kernel.DpcContext) {
		order = append(order, "d1")
		c.Charge(1000)
	})
	d2 := kernel.NewDPC("d2", kernel.MediumImportance, func(c *kernel.DpcContext) {
		order = append(order, "d2")
	})
	hi := kernel.NewDPC("hi", kernel.HighImportance, func(c *kernel.DpcContext) {
		order = append(order, "hi")
	})
	intr := b.k.Connect(40, 16, "TESTDRV", "_ISR", func(c *kernel.IsrContext) {
		order = append(order, "isr")
		c.QueueDpc(d1)
		c.QueueDpc(d2)
		c.QueueDpc(hi) // high importance jumps the queue
	})
	b.eng.At(1000, func(sim.Time) { intr.Assert() })
	b.eng.RunUntil(1_000_000)
	want := []string{"isr", "hi", "d1", "d2"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestDpcDoubleQueueRejected(t *testing.T) {
	b := newBench(t, 1, false)
	runs := 0
	d := kernel.NewDPC("d", kernel.MediumImportance, func(c *kernel.DpcContext) { runs++ })
	var first, second bool
	// Queue twice from inside an ISR, before any DPC can drain: the second
	// insert must be rejected (KeInsertQueueDpc returns FALSE).
	intr := b.k.Connect(40, 16, "DRV", "_ISR", func(c *kernel.IsrContext) {
		first = c.QueueDpc(d)
		second = c.QueueDpc(d)
	})
	b.eng.At(1000, func(sim.Time) { intr.Assert() })
	b.eng.RunUntil(1_000_000)
	if !first {
		t.Fatal("first queue should succeed")
	}
	if second {
		t.Fatal("second queue while pending should fail")
	}
	if runs != 1 {
		t.Fatalf("DPC ran %d times, want 1", runs)
	}
}

func TestInterruptPreemptsThreadExec(t *testing.T) {
	b := newBench(t, 1, false)
	var isrAt, finished sim.Time
	intr := b.k.Connect(40, 16, "TESTDRV", "_ISR", func(c *kernel.IsrContext) {
		isrAt = c.Now()
		c.Charge(2000)
	})
	b.k.CreateThread("worker1", 15, func(tc *kernel.ThreadContext) {
		tc.Exec(100_000)
		finished = tc.Now()
	})
	b.eng.At(50_000, func(sim.Time) { intr.Assert() })
	b.eng.RunUntil(10_000_000)

	if isrAt != 50_000+costIsrEntry {
		t.Fatalf("ISR entered at %d, want %d", isrAt, 50_000+costIsrEntry)
	}
	// The thread's 100k of work (starting after the worker's switch and its
	// own) is stretched by the ISR (entry+body+exit).
	isrTotal := sim.Time(costIsrEntry + 2000 + costIsrExit)
	want := sim.Time(2*costSwitch) + 100_000 + isrTotal
	if finished != want {
		t.Fatalf("exec finished at %d, want %d", finished, want)
	}
}

func TestHigherIrqlInterruptNestsOverLower(t *testing.T) {
	b := newBench(t, 1, false)
	var order []string
	low := b.k.Connect(40, 10, "LOWDRV", "_ISR", func(c *kernel.IsrContext) {
		order = append(order, "low-enter")
		c.Charge(30_000)
	})
	high := b.k.Connect(41, 20, "HIGHDRV", "_ISR", func(c *kernel.IsrContext) {
		order = append(order, "high-enter")
		c.Charge(1000)
	})
	_ = high
	b.eng.At(1000, func(sim.Time) { low.Assert() })
	// Arrives while the low ISR occupies the CPU: must nest immediately.
	b.eng.At(5000, func(sim.Time) { b.k.InterruptForVector(41).Assert() })
	b.eng.RunUntil(1_000_000)
	want := []string{"low-enter", "high-enter"}
	if len(order) != 2 || order[0] != want[0] || order[1] != want[1] {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

// TestFramesListISRAboveDPC: an ISR that preempts a running DPC is listed
// after it, outermost first, appended to whatever the caller passed in;
// once both complete, nothing occupies the CPU above thread level.
func TestFramesListISRAboveDPC(t *testing.T) {
	b := newBench(t, 1, false)
	d := kernel.NewDPC("DPCDRV", kernel.MediumImportance, func(c *kernel.DpcContext) {
		c.Charge(50_000)
	})
	var inISR []cpu.Frame
	intr := b.k.Connect(41, 20, "ISRDRV", "_Isr", func(c *kernel.IsrContext) {
		inISR = b.k.Frames([]cpu.Frame{{Module: "caller"}})
	})
	b.eng.At(1000, func(sim.Time) { b.k.QueueDpc(d) })
	b.eng.At(20_000, func(sim.Time) { intr.Assert() }) // inside the DPC
	b.eng.RunUntil(1_000_000)
	want := []cpu.Frame{{Module: "caller"}, {Module: "DPCDRV", Function: "DPC"}, {Module: "ISRDRV", Function: "_Isr"}}
	if len(inISR) != len(want) {
		t.Fatalf("frames inside the ISR = %v, want %v", inISR, want)
	}
	for i := range want {
		if inISR[i] != want[i] {
			t.Fatalf("frames inside the ISR = %v, want %v", inISR, want)
		}
	}
	if f := b.k.Frames(nil); len(f) != 0 {
		t.Fatalf("frames after both completed = %v, want none", f)
	}
}

func TestEqualIrqlInterruptWaits(t *testing.T) {
	b := newBench(t, 1, false)
	var entries []sim.Time
	mk := func(vec int) *kernel.Interrupt {
		return b.k.Connect(vec, 16, "DRV", "_ISR", func(c *kernel.IsrContext) {
			entries = append(entries, c.Now())
			c.Charge(10_000)
		})
	}
	a, c2 := mk(40), mk(41)
	_ = c2
	b.eng.At(1000, func(sim.Time) { a.Assert() })
	b.eng.At(2000, func(sim.Time) { b.k.InterruptForVector(41).Assert() })
	b.eng.RunUntil(1_000_000)
	if len(entries) != 2 {
		t.Fatalf("entries = %v", entries)
	}
	// Second ISR must wait for the first to finish (entry+10k+exit).
	firstDone := sim.Time(1000 + costIsrEntry + 10_000 + costIsrExit)
	if entries[1] < firstDone {
		t.Fatalf("equal-IRQL ISR entered at %d, before first finished at %d", entries[1], firstDone)
	}
}

func TestTimerFiresOnTickAndQueuesDpc(t *testing.T) {
	b := newBench(t, 1, true)
	var dpcAt sim.Time
	d := kernel.NewDPC("timerdpc", kernel.MediumImportance, func(c *kernel.DpcContext) {
		dpcAt = c.Now()
	})
	tm := b.k.NewTimer("t")
	b.eng.At(100, func(sim.Time) { b.k.SetTimer(tm, sim.Cycles(tickPeriod/2), d) })
	b.eng.RunUntil(10 * tickPeriod)
	if dpcAt == 0 {
		t.Fatal("timer DPC never ran")
	}
	// Due at 100+150000=150100; the PIT tick at 300000 processes it.
	if dpcAt < tickPeriod || dpcAt > tickPeriod+10_000 {
		t.Fatalf("timer DPC at %d, want shortly after tick %d", dpcAt, tickPeriod)
	}
	if tm.Fires() != 1 {
		t.Fatalf("fires = %d, want 1", tm.Fires())
	}
}

func TestPeriodicTimer(t *testing.T) {
	b := newBench(t, 1, true)
	var times []sim.Time
	d := kernel.NewDPC("ptdpc", kernel.MediumImportance, func(c *kernel.DpcContext) {
		times = append(times, c.Now())
	})
	tm := b.k.NewTimer("pt")
	b.eng.At(100, func(sim.Time) {
		b.k.SetPeriodicTimer(tm, tickPeriod, 2*tickPeriod, d)
	})
	b.eng.RunUntil(11 * tickPeriod)
	if len(times) < 4 {
		t.Fatalf("periodic timer fired %d times, want >= 4", len(times))
	}
	for i := 1; i < len(times); i++ {
		gap := times[i] - times[i-1]
		if sim.Cycles(gap) < 2*tickPeriod-10_000 || sim.Cycles(gap) > 2*tickPeriod+10_000 {
			t.Fatalf("periodic gap %d, want ~%d", gap, 2*tickPeriod)
		}
	}
}

func TestCancelTimer(t *testing.T) {
	b := newBench(t, 1, true)
	fired := false
	d := kernel.NewDPC("cd", kernel.MediumImportance, func(c *kernel.DpcContext) { fired = true })
	tm := b.k.NewTimer("c")
	b.eng.At(100, func(sim.Time) { b.k.SetTimer(tm, 5*tickPeriod, d) })
	b.eng.At(200, func(sim.Time) {
		if !b.k.CancelTimer(tm) {
			t.Error("cancel should report armed")
		}
	})
	b.eng.RunUntil(20 * tickPeriod)
	if fired {
		t.Fatal("cancelled timer fired")
	}
}

func TestTimerIsWaitable(t *testing.T) {
	b := newBench(t, 1, true)
	var woke sim.Time
	tm := b.k.NewTimer("w")
	b.k.CreateThread("tw", 20, func(tc *kernel.ThreadContext) {
		tc.SetTimer(tm, 2*tickPeriod, nil)
		tc.Wait(tm)
		woke = tc.Now()
	})
	b.eng.RunUntil(20 * tickPeriod)
	if woke == 0 {
		t.Fatal("thread never woke from timer wait")
	}
	if woke < 2*tickPeriod {
		t.Fatalf("woke at %d, before timer due", woke)
	}
}

func TestSchedLockEpisodeDelaysThreadButNotDpc(t *testing.T) {
	b := newBench(t, 1, false)
	ev := b.k.NewEvent("ev", kernel.SynchronizationEvent)
	var dpcAt, threadAt sim.Time
	d := kernel.NewDPC("d", kernel.MediumImportance, func(c *kernel.DpcContext) {
		dpcAt = c.Now()
		c.SetEvent(ev)
	})
	b.k.CreateThread("rt", 28, func(tc *kernel.ThreadContext) {
		tc.Wait(ev)
		threadAt = tc.Now()
	})
	const epLen = 3_000_000 // 10 ms
	b.eng.At(100_000, func(sim.Time) {
		b.k.InjectEpisode(kernel.LockScheduler, epLen, "VMM", "_LegacyRegion")
	})
	b.eng.At(200_000, func(sim.Time) { b.k.QueueDpc(d) })
	b.eng.RunUntil(10_000_000)

	// The DPC preempts the scheduler-locked episode: runs ~immediately.
	if dpcAt > 200_000+10_000 {
		t.Fatalf("DPC at %d: scheduler lock wrongly delayed a DPC", dpcAt)
	}
	// The thread cannot dispatch until the episode ends at ~100000+epLen
	// (stretched by the DPC execution).
	if threadAt < 100_000+epLen {
		t.Fatalf("thread at %d ran during a scheduler-locked episode ending ~%d", threadAt, 100_000+epLen)
	}
}

func TestMaskInterruptsEpisodeDelaysIsr(t *testing.T) {
	b := newBench(t, 1, false)
	var isrAt sim.Time
	intr := b.k.Connect(40, 16, "DRV", "_ISR", func(c *kernel.IsrContext) {
		isrAt = c.Now()
	})
	const epLen = 600_000 // 2 ms
	b.eng.At(100_000, func(sim.Time) {
		b.k.InjectEpisode(kernel.MaskInterrupts, epLen, "VXD", "_CliRegion")
	})
	b.eng.At(200_000, func(sim.Time) { intr.Assert() })
	b.eng.RunUntil(10_000_000)
	wantMin := sim.Time(100_000 + epLen)
	if isrAt < wantMin {
		t.Fatalf("ISR at %d ran inside a masked window ending at %d", isrAt, wantMin)
	}
	if isrAt > wantMin+costIsrEntry+1000 {
		t.Fatalf("ISR at %d, want right after mask window ends (%d)", isrAt, wantMin)
	}
}

func TestWorkItemRunsOnWorkerAtDefaultRTPriority(t *testing.T) {
	b := newBench(t, 1, false)
	b.k.QueueWorkItem(kernel.WorkItem{Name: "wi", Cycles: 10_000})
	b.eng.RunUntil(10_000_000)
	w := b.k.Worker()
	if w.Name != "ExWorkerThread" {
		t.Fatalf("worker thread is %q", w.Name)
	}
	if got := w.CPUTime(); got != 10_000 {
		t.Fatalf("worker ran %d cycles, want the work item's 10000", got)
	}
	if n := b.k.WorkQueueLen(); n != 0 {
		t.Fatalf("%d work items still queued", n)
	}
	if got := w.Priority(); got != kernel.RealtimeDefault {
		t.Fatalf("worker priority = %d, want %d", got, kernel.RealtimeDefault)
	}
}

// The paper's central NT observation: a priority-24 thread shares its level
// with the work-item worker and must wait for work-item bursts, while a
// priority-28 thread preempts them (§4.2).
func TestWorkerInterferesWithDefaultRTButNotHigh(t *testing.T) {
	measure := func(prio int) sim.Cycles {
		b := newBench(t, 1, false)
		ev := b.k.NewEvent("go", kernel.SynchronizationEvent)
		var readied, ran sim.Time
		b.k.CreateThread("meas", prio, func(tc *kernel.ThreadContext) {
			tc.Wait(ev)
			ran = tc.Now()
		})
		const burst = 3_000_000 // 10 ms work item
		b.eng.At(100_000, func(sim.Time) {
			b.k.QueueWorkItem(kernel.WorkItem{Name: "burst", Cycles: burst})
		})
		// Signal while the worker is mid-burst, just after a quantum refresh
		// so the round-robin wait is nearly a full quantum.
		b.eng.At(410_000, func(sim.Time) {
			readied = b.eng.Now()
			b.k.SetEvent(ev)
		})
		b.eng.RunUntil(100_000_000)
		if ran == 0 {
			t.Fatal("measurement thread never ran")
		}
		return ran.Sub(readied)
	}

	lat28 := measure(28)
	lat24 := measure(24)
	if lat28 > 10*costSwitch {
		t.Fatalf("priority 28 latency %d: should preempt the worker immediately", lat28)
	}
	if lat24 < 50_000 || lat24 < 10*lat28 {
		t.Fatalf("priority 24 latency %d vs 28 latency %d: worker interference missing", lat24, lat28)
	}
}

func TestIrpCompletionCallback(t *testing.T) {
	b := newBench(t, 1, false)
	irp := b.k.NewIRP()
	var completedAt sim.Time
	irp.OnComplete = func(i *kernel.IRP, at sim.Time) { completedAt = at }
	b.eng.At(5000, func(sim.Time) { b.k.CompleteIrp(irp) })
	b.eng.RunUntil(10_000)
	if !irp.Completed() || completedAt != 5000 {
		t.Fatalf("completed=%v at %d", irp.Completed(), completedAt)
	}
}

func TestIrpDoubleCompletionPanics(t *testing.T) {
	b := newBench(t, 1, false)
	irp := b.k.NewIRP()
	b.k.CompleteIrp(irp)
	defer func() {
		if recover() == nil {
			t.Fatal("double completion should panic")
		}
	}()
	b.k.CompleteIrp(irp)
}

func TestFigure3Chain(t *testing.T) {
	// The full measurement pipeline of Figure 3: PIT interrupt → clock ISR
	// fires the driver timer → driver DPC reads TSC and signals → RT
	// thread reads TSC. Verifies the latency decomposition identity
	// DPC-interrupt latency = interrupt latency + DPC latency (§2.1).
	b := newBench(t, 7, true)
	ev := b.k.NewEvent("gEvent", kernel.SynchronizationEvent)
	var tsc [3]sim.Time
	var got bool
	d := kernel.NewDPC("LatDpc", kernel.MediumImportance, func(c *kernel.DpcContext) {
		tsc[1] = c.Now()
		c.SetEvent(ev)
	})
	b.k.CreateThread("LatThread", 24, func(tc *kernel.ThreadContext) {
		tc.SetPriority(24)
		for {
			tc.Wait(ev)
			tsc[2] = tc.Now()
			got = true
		}
	})
	tm := b.k.NewTimer("gTimer")
	b.eng.At(1000, func(sim.Time) {
		tsc[0] = b.cpu.TSC()
		b.k.SetTimer(tm, 2*tickPeriod, d)
	})
	b.eng.RunUntil(20 * tickPeriod)
	if !got {
		t.Fatal("measurement chain did not complete")
	}
	if !(tsc[0] < tsc[1] && tsc[1] < tsc[2]) {
		t.Fatalf("timeline out of order: %v", tsc)
	}
	// The timer was due at 1000+2*tick; the PIT tick at 3*tick fires it.
	due := sim.Time(3 * tickPeriod)
	if tsc[1] < due {
		t.Fatalf("DPC ran at %d, before the firing tick %d", tsc[1], due)
	}
	if tsc[1] > due+sim.Time(tickPeriod) {
		t.Fatalf("DPC at %d, more than one tick after %d", tsc[1], due)
	}
	// On an idle system the thread latency is a couple of context switches.
	if lat := tsc[2] - tsc[1]; lat > 10*costSwitch {
		t.Fatalf("idle thread latency %d too large", lat)
	}
}

func TestCountersAccumulate(t *testing.T) {
	b := newBench(t, 1, true)
	b.k.CreateThread("burn", 10, func(tc *kernel.ThreadContext) {
		tc.Exec(5 * tickPeriod)
	})
	b.eng.RunUntil(10 * tickPeriod)
	ctr := b.k.Counters()
	if ctr.Interrupts == 0 || ctr.ISRCycles == 0 {
		t.Fatalf("no interrupt accounting: %+v", ctr)
	}
	if ctr.ThreadCycles != 5*tickPeriod {
		t.Fatalf("thread cycles = %d, want %d", ctr.ThreadCycles, 5*tickPeriod)
	}
	if ctr.Switches == 0 || ctr.SwitchCycles == 0 {
		t.Fatalf("no switch accounting: %+v", ctr)
	}
}

func TestThreadCPUTimeAccounting(t *testing.T) {
	b := newBench(t, 1, false)
	var th *kernel.Thread
	th = b.k.CreateThread("acct", 10, func(tc *kernel.ThreadContext) {
		tc.Exec(77_777)
	})
	b.eng.RunUntil(1_000_000)
	if th.CPUTime() != 77_777 {
		t.Fatalf("cpu time = %d, want 77777", th.CPUTime())
	}
	if !th.Terminated() {
		t.Fatal("thread should have terminated")
	}
}

func TestProbeGroundTruth(t *testing.T) {
	b := newBench(t, 1, false)
	var asserted, entered sim.Time
	var readied, dispatched sim.Time
	b.k.SetHooks(kernel.Hooks{
		IsrEntered: func(vector int, a, e sim.Time) {
			if vector == 40 {
				asserted, entered = a, e
			}
		},
		ThreadDispatched: func(th *kernel.Thread, r, d sim.Time) {
			if th.Name == "meas" {
				readied, dispatched = r, d
			}
		},
	})
	ev := b.k.NewEvent("ev", kernel.SynchronizationEvent)
	intr := b.k.Connect(40, 16, "DRV", "_ISR", func(c *kernel.IsrContext) {})
	b.k.CreateThread("meas", 28, func(tc *kernel.ThreadContext) {
		tc.Wait(ev)
	})
	b.eng.At(10_000, func(sim.Time) { intr.Assert() })
	b.eng.At(50_000, func(sim.Time) { b.k.SetEvent(ev) })
	b.eng.RunUntil(1_000_000)

	if asserted != 10_000 || entered != 10_000+costIsrEntry {
		t.Fatalf("ISR ground truth: asserted=%d entered=%d", asserted, entered)
	}
	if readied != 50_000 {
		t.Fatalf("thread readied ground truth = %d, want 50000", readied)
	}
	if dispatched != 50_000+costSwitch {
		t.Fatalf("thread dispatched = %d, want %d", dispatched, 50_000+costSwitch)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (sim.Time, kernel.Counters) {
		b := newBench(t, 42, true)
		ev := b.k.NewEvent("ev", kernel.SynchronizationEvent)
		var last sim.Time
		b.k.CreateThread("t", 24, func(tc *kernel.ThreadContext) {
			for {
				tc.Wait(ev)
				last = tc.Now()
				tc.Exec(1000)
			}
		})
		d := kernel.NewDPC("d", kernel.MediumImportance, func(c *kernel.DpcContext) {
			c.Charge(500)
			c.SetEvent(ev)
		})
		tm := b.k.NewTimer("tm")
		b.eng.At(100, func(sim.Time) {
			b.k.SetPeriodicTimer(tm, tickPeriod, tickPeriod, d)
		})
		b.eng.RunUntil(500 * tickPeriod)
		return last, b.k.Counters()
	}
	l1, c1 := run()
	l2, c2 := run()
	if l1 != l2 || c1 != c2 {
		t.Fatalf("non-deterministic: %d/%+v vs %d/%+v", l1, c1, l2, c2)
	}
}

func TestShutdownTerminatesThreads(t *testing.T) {
	b := newBench(t, 1, false)
	ev := b.k.NewEvent("forever", kernel.SynchronizationEvent)
	for i := 0; i < 5; i++ {
		b.k.CreateThread("stuck", 15, func(tc *kernel.ThreadContext) {
			tc.Wait(ev)
		})
	}
	b.eng.RunUntil(1_000_000)
	b.k.Shutdown() // must not hang; cleanup also calls it (idempotent)
}

func TestCreateThreadValidation(t *testing.T) {
	b := newBench(t, 1, false)
	for _, bad := range []int{-1, 32} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("priority %d should panic", bad)
				}
			}()
			b.k.CreateThread("bad", bad, func(tc *kernel.ThreadContext) {})
		}()
	}
}

func TestPriorityBoostAndDecay(t *testing.T) {
	// Build a bench with boosting enabled.
	eng := sim.NewEngine(1)
	c := cpu.New(eng, sim.DefaultFreq)
	cfg := testConfig()
	cfg.PriorityBoost = true
	k := kernel.New(eng, c, cfg)
	k.Boot(clockVector, tickPeriod)
	t.Cleanup(k.Shutdown)

	ev := k.NewEvent("boost", kernel.SynchronizationEvent)
	var th *kernel.Thread
	th = k.CreateThread("dyn", 8, func(tc *kernel.ThreadContext) {
		tc.Wait(ev)
		// At this point the boost is visible.
		if got := tc.Thread().Priority(); got != 10 {
			t.Errorf("boosted priority = %d, want 10", got)
		}
		if got := tc.Thread().BasePriority(); got != 8 {
			t.Errorf("base priority = %d, want 8", got)
		}
		// Burn two quanta: the boost decays one level per expiry.
		tc.Exec(2*quantum + 1000)
	})
	eng.At(10_000, func(sim.Time) { k.SetEvent(ev) })
	eng.RunUntil(10 * quantum)
	if got := th.Priority(); got != 8 {
		t.Fatalf("priority after decay = %d, want base 8", got)
	}
}

func TestNoBoostInRealtimeBand(t *testing.T) {
	eng := sim.NewEngine(1)
	c := cpu.New(eng, sim.DefaultFreq)
	cfg := testConfig()
	cfg.PriorityBoost = true
	k := kernel.New(eng, c, cfg)
	k.Boot(clockVector, tickPeriod)
	t.Cleanup(k.Shutdown)

	ev := k.NewEvent("rt", kernel.SynchronizationEvent)
	k.CreateThread("rt", 24, func(tc *kernel.ThreadContext) {
		tc.Wait(ev)
		if got := tc.Thread().Priority(); got != 24 {
			t.Errorf("real-time priority changed to %d", got)
		}
	})
	eng.At(10_000, func(sim.Time) { k.SetEvent(ev) })
	eng.RunUntil(1_000_000)
}

func TestBoostDisabledByDefault(t *testing.T) {
	b := newBench(t, 1, false)
	ev := b.k.NewEvent("nb", kernel.SynchronizationEvent)
	b.k.CreateThread("dyn", 8, func(tc *kernel.ThreadContext) {
		tc.Wait(ev)
		if got := tc.Thread().Priority(); got != 8 {
			t.Errorf("priority = %d without PriorityBoost", got)
		}
	})
	b.eng.At(10_000, func(sim.Time) { b.k.SetEvent(ev) })
	b.eng.RunUntil(1_000_000)
}
