// Package microbench implements the *traditional* OS microbenchmark
// methodology the paper argues is insufficient (§1.2): average costs of
// primitive OS services measured over thousands of iterations on an
// otherwise unloaded system, in the style of lmbench [17] and hbench:OS
// [3]. Running it against the same simulated machines that produce the
// paper's loaded latency distributions makes the critique concrete: the
// averages are nearly identical across operating systems whose loaded
// worst cases differ by two orders of magnitude — "microbenchmarks have
// not been very useful in assessing the OS and hardware overhead that an
// application or driver will actually receive in practice" [2].
package microbench

import (
	"fmt"
	"math"
	"time"

	"wdmlat/internal/kernel"
	"wdmlat/internal/ospersona"
	"wdmlat/internal/sim"
)

// Stat is a mean/deviation pair in microseconds — the shape traditional
// suites report.
type Stat struct {
	MeanUS   float64
	StdDevUS float64
	N        int
}

func (s Stat) String() string {
	return fmt.Sprintf("%8.2f µs ± %.2f (n=%d)", s.MeanUS, s.StdDevUS, s.N)
}

// Results is one suite run on one OS.
type Results struct {
	OSName string
	// ContextSwitch is lmbench lat_ctx-style: half a ping-pong round trip
	// between two equal-priority threads.
	ContextSwitch Stat
	// EventSignal is the latency from KeSetEvent (in a DPC) to the woken
	// real-time thread's first instruction.
	EventSignal Stat
	// DpcDispatch is queue-to-first-instruction for a DPC on an idle CPU.
	DpcDispatch Stat
	// InterruptDispatch is assert-to-ISR-entry on an idle CPU.
	InterruptDispatch Stat
	// TimerGranularity is the mean error between a requested timer delay
	// and its actual expiry (the PIT quantization).
	TimerGranularity Stat
}

type accumulator struct {
	sum, sum2 float64
	n         int
}

func (a *accumulator) add(us float64) {
	a.sum += us
	a.sum2 += us * us
	a.n++
}

func (a *accumulator) stat() Stat {
	if a.n == 0 {
		return Stat{}
	}
	mean := a.sum / float64(a.n)
	v := a.sum2/float64(a.n) - mean*mean
	if v < 0 {
		v = 0
	}
	return Stat{MeanUS: mean, StdDevUS: math.Sqrt(v), N: a.n}
}

// Run executes the suite on an unloaded machine of the given OS.
func Run(os ospersona.OS, seed uint64, iterations int) Results {
	if iterations <= 0 {
		iterations = 1000
	}
	m := ospersona.Build(os, ospersona.Options{Seed: seed})
	defer m.Shutdown()
	freq := m.Freq()
	us := func(c sim.Cycles) float64 { return freq.Millis(c) * 1000 }

	res := Results{OSName: m.Profile.Name}

	// --- context switch: two equal-priority threads ping-pong ------------
	{
		var acc accumulator
		ping := m.Kernel.NewEvent("mb.ping", kernel.SynchronizationEvent)
		pong := m.Kernel.NewEvent("mb.pong", kernel.SynchronizationEvent)
		var lastSet sim.Time
		stamp := func() { lastSet = m.CPU.TSC() }
		// Step bodies (see kernel.ThreadContext), each with its own
		// program counter. a: wait for ping, record, stamp, set pong.
		pcA := 0
		m.Kernel.CreateStepThread("mb.a", 20, func(tc *kernel.ThreadContext) {
			switch pcA {
			case 0:
				pcA = 1
				tc.Wait(ping)
			case 1:
				if acc.n < iterations {
					acc.add(us(tc.Now().Sub(lastSet)))
				}
				pcA = 2
				tc.Do(stamp)
			case 2:
				pcA = 0
				tc.SetEvent(pong)
			}
		})
		// b: stamp, set ping, wait for pong.
		pcB := 0
		m.Kernel.CreateStepThread("mb.b", 20, func(tc *kernel.ThreadContext) {
			switch pcB {
			case 0:
				pcB = 1
				tc.Do(stamp)
			case 1:
				pcB = 2
				tc.SetEvent(ping)
			case 2:
				pcB = 0
				tc.Wait(pong)
			}
		})
		for acc.n < iterations {
			m.RunFor(freq.Cycles(10 * time.Millisecond))
		}
		res.ContextSwitch = acc.stat()
	}

	// --- event signal from DPC to RT thread ------------------------------
	{
		var acc accumulator
		ev := m.Kernel.NewEvent("mb.ev", kernel.SynchronizationEvent)
		var setAt sim.Time
		// A step body: raise, then wait and record per signal.
		raised, woke := false, false
		m.Kernel.CreateStepThread("mb.rt", 28, func(tc *kernel.ThreadContext) {
			if !raised {
				raised = true
				tc.SetPriority(28)
				return
			}
			if woke && acc.n < iterations {
				acc.add(us(tc.Now().Sub(setAt)))
			}
			woke = true
			tc.Wait(ev)
		})
		d := kernel.NewDPC("mb.dpc", kernel.MediumImportance, func(c *kernel.DpcContext) {
			setAt = c.Now()
			c.SetEvent(ev)
		})
		for acc.n < iterations {
			m.Eng.After(freq.Cycles(200*time.Microsecond), func(sim.Time) {
				m.Kernel.QueueDpc(d)
			})
			m.RunFor(freq.Cycles(time.Millisecond))
		}
		res.EventSignal = acc.stat()
	}

	// --- DPC dispatch -----------------------------------------------------
	{
		var acc accumulator
		var queuedAt sim.Time
		d := kernel.NewDPC("mb.d2", kernel.MediumImportance, func(c *kernel.DpcContext) {
			if acc.n < iterations {
				acc.add(us(c.Now().Sub(queuedAt)))
			}
		})
		for acc.n < iterations {
			m.Eng.After(freq.Cycles(100*time.Microsecond), func(sim.Time) {
				queuedAt = m.CPU.TSC()
				m.Kernel.QueueDpc(d)
			})
			m.RunFor(freq.Cycles(500 * time.Microsecond))
		}
		res.DpcDispatch = acc.stat()
	}

	// --- interrupt dispatch ------------------------------------------------
	{
		var acc accumulator
		var assertAt sim.Time
		intr := m.Kernel.Connect(40, 16, "MBENCH", "_ISR", func(c *kernel.IsrContext) {
			if acc.n < iterations {
				acc.add(us(c.Now().Sub(assertAt)))
			}
		})
		for acc.n < iterations {
			m.Eng.After(freq.Cycles(100*time.Microsecond), func(sim.Time) {
				assertAt = m.CPU.TSC()
				intr.Assert()
			})
			m.RunFor(freq.Cycles(500 * time.Microsecond))
		}
		res.InterruptDispatch = acc.stat()
	}

	// --- timer granularity --------------------------------------------------
	{
		var acc accumulator
		tm := m.Kernel.NewTimer("mb.t")
		var due sim.Time
		d := kernel.NewDPC("mb.td", kernel.MediumImportance, func(c *kernel.DpcContext) {
			if acc.n < iterations {
				acc.add(us(c.Now().Sub(due)))
			}
		})
		delay := freq.Cycles(2500 * time.Microsecond)
		for acc.n < iterations {
			m.Eng.After(freq.Cycles(700*time.Microsecond), func(sim.Time) {
				due = m.CPU.TSC().Add(delay)
				m.Kernel.SetTimer(tm, delay, d)
			})
			m.RunFor(freq.Cycles(5 * time.Millisecond))
		}
		res.TimerGranularity = acc.stat()
	}

	return res
}
