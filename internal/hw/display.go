package hw

import "wdmlat/internal/sim"

// Display models the AGP graphics adapter's vertical-blank interrupt: a
// free-running raster that asserts its line at every vblank (16.7 ms at the
// 60 Hz refresh of the Table 2 test system). A frame-pacing application
// waits on the vblank to present — the D3DKMTWaitForVerticalBlankEvent
// pattern — so its missed-frame distribution is a user-visible readout of
// OS latency, the third QoS consumer alongside the soft modem and audio.
//
// Like the PIT, vblanks happen at exact period multiples from Start: all
// observed pacing jitter is OS-side, which is exactly what the frame pacer
// measures.
type Display struct {
	eng    *sim.Engine
	line   IRQLine
	period sim.Cycles
	tick   *sim.Event
	tickFn func(sim.Time) // vblank callback, allocated once
	blanks uint64
	epoch  sim.Time // time of Start; vblanks count from here
}

// NewDisplay creates a stopped display that will assert line at each
// vblank once started.
func NewDisplay(eng *sim.Engine, line IRQLine) *Display {
	if line == nil {
		panic("hw: display with nil interrupt line")
	}
	d := &Display{eng: eng, line: line}
	d.tickFn = func(sim.Time) {
		// Event records are pooled: drop the handle before re-arming so a
		// later Stop cannot cancel a recycled record.
		d.tick = nil
		d.blanks++
		d.arm() // re-arm first: the ISR path may run arbitrary code
		d.line.Assert()
	}
	return d
}

// Start begins the raster at the given refresh period. The first vblank
// asserts one full period after starting.
func (d *Display) Start(period sim.Cycles) {
	if period <= 0 {
		panic("hw: non-positive display refresh period")
	}
	d.Stop()
	d.period = period
	d.epoch = d.eng.Now()
	d.arm()
}

func (d *Display) arm() {
	d.tick = d.eng.After(d.period, d.tickFn)
}

// Stop halts the raster.
func (d *Display) Stop() {
	if d.tick != nil {
		d.eng.Cancel(d.tick)
		d.tick = nil
	}
}

// Period returns the refresh period (0 if stopped since creation).
func (d *Display) Period() sim.Cycles { return d.period }

// VBlanks returns the number of vblank interrupts asserted since Start.
func (d *Display) VBlanks() uint64 { return d.blanks }

// NominalVBlankTime returns the exact hardware time of vblank n (1-based)
// since the last Start call — the ground-truth release instant a perfectly
// paced frame presents against.
func (d *Display) NominalVBlankTime(n uint64) sim.Time {
	return d.epoch.Add(sim.Cycles(n) * d.period)
}
