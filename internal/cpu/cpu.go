// Package cpu models the processor-visible hardware services that the
// paper's tools depend on: the Pentium time stamp counter (read with RDTSC
// in the paper, §2.2.5) and the Interrupt Descriptor Table with hookable
// vectors (the latency cause tool of §2.3 patches the PIT vector). Its
// Frame names the code executing at an instant, standing in for the
// instruction pointer + code segment samples the cause tool records; the
// kernel's occupancy stack is the registry of which frames are on the CPU
// (kernel.Kernel.Frames).
package cpu

import (
	"fmt"

	"wdmlat/internal/sim"
)

// NumVectors is the size of the IDT on IA-32.
const NumVectors = 256

// Handler is an interrupt handler installed in an IDT slot. It receives the
// virtual time at which the processor dispatches through the vector.
type Handler func(now sim.Time)

// Frame identifies the code executing on the CPU at an instant: a module
// (driver or OS component, e.g. "VMM", "SYSAUDIO", "KMIXER") and a function
// within it. It is the simulated analogue of the instruction pointer / code
// segment pair captured by the cause tool; with "symbols available", a frame
// resolves to module+function exactly as in Table 4 of the paper.
type Frame struct {
	Module   string
	Function string
}

// String formats the frame the way the paper's post-mortem analysis prints
// trace lines ("VMM function _mmCalcFrameBadness").
func (f Frame) String() string {
	if f.Module == "" {
		return "idle"
	}
	if f.Function == "" {
		return f.Module + " function unknown"
	}
	return f.Module + " function " + f.Function
}

// IdleFrame is the frame reported when nothing is executing.
var IdleFrame = Frame{}

// CPU is the virtual processor. It owns the time stamp counter (delegated to
// the simulation clock) and the IDT.
//
// CPU is not safe for concurrent use; the simulator is single-threaded.
type CPU struct {
	eng  *sim.Engine
	freq sim.Freq
	idt  [NumVectors]Handler
	// charge is extra cycles attributed to the currently running body
	// beyond the engine clock; it makes TSC reads inside an ISR/DPC body
	// reflect the cycles the body has "executed" so far even though the
	// body runs instantaneously in host terms.
	charge sim.Cycles
}

// New returns a CPU bound to the engine at the given clock frequency.
func New(eng *sim.Engine, freq sim.Freq) *CPU {
	if freq <= 0 {
		panic("cpu: non-positive frequency")
	}
	return &CPU{eng: eng, freq: freq}
}

// Engine returns the simulation engine driving this CPU.
func (c *CPU) Engine() *sim.Engine { return c.eng }

// Freq returns the core clock frequency.
func (c *CPU) Freq() sim.Freq { return c.freq }

// TSC returns the current value of the time stamp counter, including any
// cycles charged by the currently executing body. This is the simulated
// GetCycleCount of §2.2.5.
func (c *CPU) TSC() sim.Time { return c.eng.Now().Add(c.charge) }

// AddCharge attributes extra executed cycles to the current body so that
// subsequent TSC reads observe them. The kernel resets the charge at body
// boundaries via ResetCharge.
func (c *CPU) AddCharge(d sim.Cycles) {
	if d < 0 {
		panic("cpu: negative charge")
	}
	c.charge += d
}

// Charge returns the cycles charged since the last ResetCharge.
func (c *CPU) Charge() sim.Cycles { return c.charge }

// ResetCharge clears the per-body charge accumulator and returns the total
// that was accumulated.
func (c *CPU) ResetCharge() sim.Cycles {
	ch := c.charge
	c.charge = 0
	return ch
}

// Install sets the handler for a vector, replacing any previous handler and
// discarding any hooks. It is how the OS claims a vector at boot.
func (c *CPU) Install(vector int, h Handler) {
	c.checkVector(vector)
	c.idt[vector] = h
}

// Handler returns the currently installed handler chain for a vector, or nil.
func (c *CPU) Handler(vector int) Handler {
	c.checkVector(vector)
	return c.idt[vector]
}

// Hook patches a vector the way the cause tool does: the hook function runs
// first and receives the previous handler so it can chain to the OS ISR.
// It returns an unhook function restoring the previous handler.
func (c *CPU) Hook(vector int, hook func(now sim.Time, chain Handler)) (unhook func()) {
	c.checkVector(vector)
	prev := c.idt[vector]
	c.idt[vector] = func(now sim.Time) { hook(now, prev) }
	return func() { c.idt[vector] = prev }
}

// Dispatch vectors an interrupt through the IDT. The kernel calls this when
// it accepts a hardware interrupt. Dispatching through an empty vector
// panics: it corresponds to the triple-fault you would get on hardware.
func (c *CPU) Dispatch(vector int, now sim.Time) {
	c.checkVector(vector)
	h := c.idt[vector]
	if h == nil {
		panic(fmt.Sprintf("cpu: interrupt through empty vector %d", vector))
	}
	h(now)
}

func (c *CPU) checkVector(vector int) {
	if vector < 0 || vector >= NumVectors {
		panic(fmt.Sprintf("cpu: vector %d out of range", vector))
	}
}
