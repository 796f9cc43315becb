package kernel

// White-box property and stress tests: random workloads hammer the
// scheduler while invariants are checked from inside the package.

import (
	"testing"

	"wdmlat/internal/cpu"
	"wdmlat/internal/sim"
)

func newWhiteboxKernel(t *testing.T, seed uint64) (*sim.Engine, *Kernel) {
	t.Helper()
	eng := sim.NewEngine(seed)
	c := cpu.New(eng, sim.DefaultFreq)
	k := New(eng, c, Config{Name: "prop"})
	k.Boot(32, 300_000)
	t.Cleanup(k.Shutdown)
	return eng, k
}

// TestDispatchInvariantNoHigherReadyThread asserts the fundamental
// scheduling guarantee: a thread may complete its dispatch while a
// higher-priority thread is ready only transiently (the waker arrived
// during the context switch); by the next cycle the higher thread must own
// the CPU (or a switch/ISR toward it must be in flight).
func TestDispatchInvariantNoHigherReadyThread(t *testing.T) {
	eng, k := newWhiteboxKernel(t, 99)
	k.probe.ThreadDispatched = func(th *Thread, _, _ sim.Time) {
		if best := k.bestReadyPriority(); best > th.priority {
			// Re-check after the dispatch loop settles.
			eng.After(1, func(sim.Time) {
				cur := k.Current()
				if cur == th && len(k.stack) == 0 && k.bestReadyPriority() > th.priority {
					t.Errorf("%s (prio %d) kept the CPU while prio %d stayed ready",
						th.Name, th.priority, k.bestReadyPriority())
				}
			})
		}
	}

	rng := sim.NewRNG(7)
	events := []*Event{}
	for i := 0; i < 8; i++ {
		ev := k.NewEvent("ev", SynchronizationEvent)
		events = append(events, ev)
		prio := 4 + rng.Intn(26)
		k.CreateThread("w", prio, func(tc *ThreadContext) {
			for {
				tc.Wait(ev)
				tc.Exec(sim.Cycles(1000 + rng.Intn(200_000)))
			}
		})
	}
	// Random wakeups and interrupts.
	intr := k.Connect(40, 16, "DRV", "_ISR", func(c *IsrContext) { c.Charge(2000) })
	var kick func(sim.Time)
	kick = func(sim.Time) {
		k.SetEvent(events[rng.Intn(len(events))])
		if rng.Bool(0.3) {
			intr.Assert()
		}
		if rng.Bool(0.2) {
			k.InjectEpisode(LockScheduler, sim.Cycles(1000+rng.Intn(500_000)), "VMM", "_X")
		}
		eng.After(sim.Cycles(1000+rng.Intn(100_000)), kick)
	}
	eng.After(1000, kick)
	eng.RunUntil(300_000_000) // 1 virtual second
}

// TestStackLevelMonotonic asserts the occupancy stack is strictly
// increasing in preemption level from bottom to top at every event.
func TestStackLevelMonotonic(t *testing.T) {
	eng, k := newWhiteboxKernel(t, 5)
	rng := sim.NewRNG(11)
	intrLow := k.Connect(40, 10, "LOW", "_ISR", func(c *IsrContext) { c.Charge(20_000) })
	intrHigh := k.Connect(41, 20, "HIGH", "_ISR", func(c *IsrContext) { c.Charge(5_000) })
	d := NewDPC("d", MediumImportance, func(c *DpcContext) { c.Charge(50_000) })
	k.CreateThread("burner", 8, func(tc *ThreadContext) {
		for {
			tc.Exec(1_000_000)
		}
	})

	var storm func(sim.Time)
	storm = func(sim.Time) {
		switch rng.Intn(4) {
		case 0:
			intrLow.Assert()
		case 1:
			intrHigh.Assert()
		case 2:
			k.QueueDpc(d)
		case 3:
			k.InjectEpisode(LockScheduler, sim.Cycles(1000+rng.Intn(300_000)), "VMM", "_X")
		}
		for i := 1; i < len(k.stack); i++ {
			if k.stack[i].level <= k.stack[i-1].level {
				t.Fatalf("stack levels not increasing: %v <= %v (%s %v under %s %v)",
					k.stack[i].level, k.stack[i-1].level,
					k.stack[i].kind, k.stack[i].frame, k.stack[i-1].kind, k.stack[i-1].frame)
			}
		}
		eng.After(sim.Cycles(500+rng.Intn(50_000)), storm)
	}
	eng.After(100, storm)
	eng.RunUntil(150_000_000)
}

// TestAccountingConservation: total accounted busy cycles can never exceed
// elapsed virtual time, and thread CPU time never exceeds its requests.
func TestAccountingConservation(t *testing.T) {
	eng, k := newWhiteboxKernel(t, 21)
	rng := sim.NewRNG(13)
	var requested sim.Cycles
	ev := k.NewEvent("ev", SynchronizationEvent)
	th := k.CreateThread("acct", 15, func(tc *ThreadContext) {
		for {
			tc.Wait(ev)
			c := sim.Cycles(1000 + rng.Intn(400_000))
			requested += c
			tc.Exec(c)
		}
	})
	intr := k.Connect(40, 16, "DRV", "_ISR", func(c *IsrContext) { c.Charge(3000) })
	var kick func(sim.Time)
	kick = func(sim.Time) {
		k.SetEvent(ev)
		intr.Assert()
		if rng.Bool(0.3) {
			k.InjectEpisode(MaskInterrupts, sim.Cycles(1000+rng.Intn(100_000)), "VXD", "_X")
		}
		eng.After(sim.Cycles(10_000+rng.Intn(500_000)), kick)
	}
	eng.After(1000, kick)

	end := sim.Time(300_000_000)
	eng.RunUntil(end)
	ctr := k.Counters()
	if ctr.Busy() > sim.Cycles(end) {
		t.Fatalf("accounted %d busy cycles in %d elapsed", ctr.Busy(), end)
	}
	if th.CPUTime() > requested {
		t.Fatalf("thread cpu time %d exceeds requested %d", th.CPUTime(), requested)
	}
	if ctr.ThreadCycles < th.CPUTime() {
		t.Fatalf("global thread accounting %d below thread's own %d", ctr.ThreadCycles, th.CPUTime())
	}
}

// TestRandomStressDeterministic runs a chaotic mixed workload twice and
// requires identical end states.
func TestRandomStressDeterministic(t *testing.T) {
	runOnce := func() (Counters, sim.Time) {
		eng := sim.NewEngine(77)
		c := cpu.New(eng, sim.DefaultFreq)
		k := New(eng, c, Config{Name: "det"})
		k.Boot(32, 300_000)
		defer k.Shutdown()
		rng := sim.NewRNG(3)

		evs := make([]*Event, 4)
		for i := range evs {
			evs[i] = k.NewEvent("ev", SynchronizationEvent)
			ev := evs[i]
			k.CreateThread("w", 6+i*6, func(tc *ThreadContext) {
				for {
					if tc.WaitTimeout(ev, sim.Cycles(1+rng.Intn(1_000_000))) == WaitSuccess {
						tc.Exec(sim.Cycles(rng.Intn(100_000)))
					} else {
						tc.Sleep(sim.Cycles(rng.Intn(10_000)))
					}
				}
			})
		}
		intr := k.Connect(40, 16, "DRV", "_ISR", func(ic *IsrContext) {
			ic.Charge(sim.Cycles(500 + rng.Intn(5000)))
		})
		d := NewDPC("d", HighImportance, func(dc *DpcContext) {
			dc.Charge(sim.Cycles(rng.Intn(50_000)))
			dc.SetEvent(evs[rng.Intn(len(evs))])
		})
		var kick func(sim.Time)
		kick = func(sim.Time) {
			switch rng.Intn(5) {
			case 0:
				intr.Assert()
			case 1:
				k.QueueDpc(d)
			case 2:
				k.SetEvent(evs[rng.Intn(len(evs))])
			case 3:
				k.InjectEpisode(LockScheduler, sim.Cycles(1+rng.Intn(200_000)), "VMM", "_X")
			case 4:
				k.QueueWorkItem(WorkItem{Name: "wi", Cycles: sim.Cycles(rng.Intn(100_000))})
			}
			eng.After(sim.Cycles(1000+rng.Intn(80_000)), kick)
		}
		eng.After(500, kick)
		eng.RunUntil(200_000_000)
		return k.Counters(), eng.Now()
	}
	c1, t1 := runOnce()
	c2, t2 := runOnce()
	if c1 != c2 || t1 != t2 {
		t.Fatalf("chaotic run diverged:\n%+v @ %d\n%+v @ %d", c1, t1, c2, t2)
	}
}

// TestEpisodeFIFOWithinLevel: same-level episodes run in injection order.
func TestEpisodeFIFOWithinLevel(t *testing.T) {
	eng, k := newWhiteboxKernel(t, 1)
	var order []string
	k.CreateThread("observer", 28, func(tc *ThreadContext) {
		for {
			tc.Sleep(1000)
		}
	})
	// Inject three scheduler locks back to back; their execution order is
	// observable through the kernel's frames when each starts.
	probe := func(name string) {
		k.InjectEpisode(LockScheduler, 50_000, name, "_F")
	}
	eng.At(1000, func(sim.Time) {
		probe("A")
		probe("B")
		probe("C")
	})
	var frames []cpu.Frame
	var watch func(sim.Time)
	watch = func(sim.Time) {
		frames = k.Frames(frames[:0])
		if n := len(frames); n > 0 && frames[n-1].Function == "_F" {
			f := frames[n-1]
			if len(order) == 0 || order[len(order)-1] != f.Module {
				order = append(order, f.Module)
			}
		}
		eng.After(10_000, watch)
	}
	eng.After(1000, watch)
	eng.RunUntil(10_000_000)
	if len(order) != 3 || order[0] != "A" || order[1] != "B" || order[2] != "C" {
		t.Fatalf("episode order = %v, want [A B C]", order)
	}
}
