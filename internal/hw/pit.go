package hw

import (
	"wdmlat/internal/sim"
)

// PIT is the programmable interval timer (Intel 8253/8254). By default
// Windows programs it at 67–100 Hz; the paper's measurement tools raise it
// to 1 kHz (§2.2). Interrupt assertions happen at exact period multiples
// from programming time — all observed jitter is OS-side, which is exactly
// what the tools measure.
type PIT struct {
	eng    *sim.Engine
	line   IRQLine
	period sim.Cycles
	tick   *sim.Event
	tickFn func(sim.Time) // tick callback, allocated once
	ticks  uint64
	epoch  sim.Time // time of last Program call; ticks count from here
}

// NewPIT creates an unprogrammed timer that will assert line when it fires.
func NewPIT(eng *sim.Engine, line IRQLine) *PIT {
	if line == nil {
		panic("hw: PIT with nil interrupt line")
	}
	p := &PIT{eng: eng, line: line}
	p.tickFn = func(sim.Time) {
		// Event records are pooled: drop the handle before re-arming so a
		// later Stop cannot cancel a recycled record.
		p.tick = nil
		p.ticks++
		p.arm() // re-arm first: the ISR path may run arbitrary code
		p.line.Assert()
	}
	return p
}

// Program sets the interrupt period and (re)starts the count. The first
// interrupt asserts one full period after programming.
func (p *PIT) Program(period sim.Cycles) {
	if period <= 0 {
		panic("hw: non-positive PIT period")
	}
	p.Stop()
	p.period = period
	p.epoch = p.eng.Now()
	p.arm()
}

func (p *PIT) arm() {
	p.tick = p.eng.After(p.period, p.tickFn)
}

// Stop halts the timer.
func (p *PIT) Stop() {
	if p.tick != nil {
		p.eng.Cancel(p.tick)
		p.tick = nil
	}
}

// Period returns the programmed period (0 if unprogrammed).
func (p *PIT) Period() sim.Cycles { return p.period }

// Ticks returns the number of interrupts asserted since programming.
func (p *PIT) Ticks() uint64 { return p.ticks }

// FirstTickAtOrAfter returns the exact hardware time of the first tick at
// or after t — the ground-truth assertion instant for a timer due at t.
func (p *PIT) FirstTickAtOrAfter(t sim.Time) sim.Time {
	if p.period <= 0 {
		return t
	}
	d := t.Sub(p.epoch)
	if d <= 0 {
		return p.NominalTickTime(1)
	}
	n := uint64((d + p.period - 1) / p.period)
	if n == 0 {
		n = 1
	}
	return p.NominalTickTime(n)
}

// NominalTickTime returns the exact hardware time of tick n (1-based)
// since the last Program call. Measurement tools use it as the ground-truth
// assertion instant that the paper's drivers estimate via "I/O-read TSC +
// delay".
func (p *PIT) NominalTickTime(n uint64) sim.Time {
	return p.epoch.Add(sim.Cycles(n) * p.period)
}
