package kernel

import (
	"wdmlat/internal/cpu"
	"wdmlat/internal/sim"
)

// Non-maskable interrupt support. The paper's future work (§6.1) plans to
// move the cause tool's sampler from the PIT interrupt to "non-maskable
// interrupts caused by the Pentium II performance monitoring counters"
// configured on CPU_CLOCKS_UNHALTED — NMIs are delivered even inside
// interrupt-masked windows and at any IRQL, giving sub-millisecond
// visibility into exactly the regions the PIT sampler cannot see.

// levelNMI sits above everything, including interrupt-masked episodes.
const levelNMI = 2000

// SetNMIHandler installs the NMI handler (nil uninstalls). The handler runs
// at NMI level: it may read machine state and charge a small cost via the
// CPU's charge accumulator, but must not touch dispatcher objects.
func (k *Kernel) SetNMIHandler(h func(now sim.Time)) {
	k.nmiHandler = h
}

// AssertNMI delivers a non-maskable interrupt immediately: it preempts
// whatever occupies the CPU — a thread, a DPC, an ISR, even an
// interrupt-masked overhead episode — runs the handler, and resumes the
// preempted work. An NMI arriving while one is already being serviced is
// dropped (the hardware latches a single pending NMI; at sampling rates
// this cannot happen and dropping is the conservative choice).
func (k *Kernel) AssertNMI() {
	if k.nmiHandler == nil {
		return
	}
	if k.topLevel() >= levelNMI {
		k.counters.NMIsDropped++
		return
	}
	k.counters.NMIs++

	act := k.newActivity()
	act.kind = actISR
	act.level = levelNMI
	act.frame = cpu.Frame{Module: "NTOSKRNL", Function: "_KiTrap02"}
	k.occupy(act)
	k.cpu.ResetCharge()
	k.cpu.AddCharge(200) // trap entry: ~0.7 µs
	k.nmiHandler(k.now())
	act.remaining = k.cpu.ResetCharge() + 100
	k.maybeRun()
}

// PerfCounterSampler drives AssertNMI at a fixed unhalted-cycle period,
// modeling a Pentium II performance counter programmed to overflow on
// CPU_CLOCKS_UNHALTED (§6.1).
type PerfCounterSampler struct {
	k       *Kernel
	period  sim.Cycles
	ev      *sim.Event
	tickFn  func(sim.Time) // re-arm callback, allocated once
	running bool
}

// NewPerfCounterSampler creates a stopped sampler with the given period.
func (k *Kernel) NewPerfCounterSampler(period sim.Cycles) *PerfCounterSampler {
	if period <= 0 {
		panic("kernel: non-positive perf counter period")
	}
	s := &PerfCounterSampler{k: k, period: period}
	s.tickFn = func(sim.Time) {
		// Event records are pooled: drop the handle before anything else so
		// Stop cannot cancel a recycled record.
		s.ev = nil
		if !s.running {
			return
		}
		s.arm()
		s.k.AssertNMI()
	}
	return s
}

// Start begins overflow NMIs every period cycles.
func (s *PerfCounterSampler) Start() {
	if s.running {
		return
	}
	s.running = true
	s.arm()
}

func (s *PerfCounterSampler) arm() {
	s.ev = s.k.eng.After(s.period, s.tickFn)
}

// Stop halts the counter.
func (s *PerfCounterSampler) Stop() {
	s.running = false
	if s.ev != nil {
		s.k.eng.Cancel(s.ev)
		s.ev = nil
	}
}

// Period returns the sampling period in cycles.
func (s *PerfCounterSampler) Period() sim.Cycles { return s.period }
