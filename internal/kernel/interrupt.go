package kernel

import (
	"fmt"

	"wdmlat/internal/cpu"
	"wdmlat/internal/sim"
)

// Interrupt is the kernel's connection of an IDT vector to a driver ISR at
// a device IRQL — the analogue of a WDM KINTERRUPT object.
type Interrupt struct {
	k        *Kernel
	Vector   int
	Irql     IRQL
	Module   string // owning driver, for the cause tool's frames
	Function string
	isr      func(*IsrContext)

	ctx *IsrContext // reusable ISR context (ISRs run one at a time)

	pending    bool
	assertedAt sim.Time
	asserts    uint64
	spurious   uint64
}

// IsrContext is the restricted execution environment handed to an ISR body.
// WDM ISRs are supposed to be very short and queue a DPC for real work
// (paper §2.1); the context surface enforces that style.
type IsrContext struct {
	k   *Kernel
	irq *Interrupt
}

// Now reads the time stamp counter, including cycles charged so far by the
// body — the simulated GetCycleCount (paper §2.2.5).
func (c *IsrContext) Now() sim.Time { return c.k.cpu.TSC() }

// Charge accounts d cycles of ISR execution; subsequent Now reads observe
// them.
func (c *IsrContext) Charge(d sim.Cycles) { c.k.cpu.AddCharge(d) }

// QueueDpc inserts d into the DPC queue (KeInsertQueueDpc). It returns
// false if the DPC was already queued.
func (c *IsrContext) QueueDpc(d *DPC) bool { return c.k.queueDpc(d) }

// Vector returns the interrupt vector being serviced.
func (c *IsrContext) Vector() int { return c.irq.Vector }

// Connect claims vector for a driver ISR running at irql, installing the
// kernel's interrupt trampoline in the IDT (IoConnectInterrupt).
func (k *Kernel) Connect(vector int, irql IRQL, module, function string, isr func(*IsrContext)) *Interrupt {
	if _, ok := k.interrupts[vector]; ok {
		panic(fmt.Sprintf("kernel: vector %d already connected", vector))
	}
	if irql < MinDeviceIRQL || irql > HighLevel {
		panic(fmt.Sprintf("kernel: cannot connect ISR at %v", irql))
	}
	intr := &Interrupt{k: k, Vector: vector, Irql: irql, Module: module, Function: function, isr: isr}
	intr.ctx = &IsrContext{k: k, irq: intr}
	k.interrupts[vector] = intr
	k.irqList = append(k.irqList, intr)
	k.cpu.Install(vector, func(now sim.Time) {
		intr.isr(intr.ctx)
	})
	return intr
}

// InterruptForVector returns the interrupt object connected to a vector, or
// nil. Tools use it to assert or inspect lines they did not create (the
// Win98 latency tool manipulates the OS-owned PIT interrupt this way).
func (k *Kernel) InterruptForVector(vector int) *Interrupt {
	return k.interrupts[vector]
}

// Disconnect releases a vector.
func (k *Kernel) Disconnect(intr *Interrupt) {
	delete(k.interrupts, intr.Vector)
	for i, x := range k.irqList {
		if x == intr {
			k.irqList = append(k.irqList[:i], k.irqList[i+1:]...)
			break
		}
	}
	if intr.pending {
		intr.pending = false
		k.irqPending--
	}
}

// Assert raises the interrupt line. Devices call this; it is level-styled:
// asserting an already-pending line is recorded as spurious and otherwise
// ignored.
func (intr *Interrupt) Assert() {
	k := intr.k
	if intr.pending {
		intr.spurious++
		return
	}
	intr.pending = true
	k.irqPending++
	intr.assertedAt = k.now()
	intr.asserts++
	if k.probe.InterruptAsserted != nil {
		k.probe.InterruptAsserted(intr.Vector, intr.assertedAt)
	}
	k.maybeRun()
}

// Asserts returns how many times the line has been asserted.
func (intr *Interrupt) Asserts() uint64 { return intr.asserts }

// Spurious returns assertions that arrived while the line was already
// pending (level-triggered: they coalesce into one delivery).
func (intr *Interrupt) Spurious() uint64 { return intr.spurious }

// bestDeliverableIRQ returns the pending interrupt with the highest IRQL
// whose level exceeds top, or nil. FIFO order breaks IRQL ties via
// assertion time.
func (k *Kernel) bestDeliverableIRQ(top int) *Interrupt {
	if k.irqPending == 0 {
		return nil
	}
	var best *Interrupt
	for _, intr := range k.irqList {
		if !intr.pending || isrLevel(intr.Irql) <= top {
			continue
		}
		if best == nil ||
			intr.Irql > best.Irql ||
			(intr.Irql == best.Irql && intr.assertedAt < best.assertedAt) ||
			(intr.Irql == best.Irql && intr.assertedAt == best.assertedAt && intr.Vector < best.Vector) {
			best = intr
		}
	}
	return best
}

// acceptInterrupt vectors a pending interrupt: it preempts the current CPU
// occupant, pushes the ISR activity, and dispatches through the IDT (so
// that cause-tool hooks on the vector run exactly where they would on real
// hardware). The ISR body executes logically at acceptance time, charging
// its cycles; the activity then occupies the CPU for entry + body + exit.
func (k *Kernel) acceptInterrupt(intr *Interrupt) {
	now := k.now()
	intr.pending = false
	k.irqPending--
	k.counters.Interrupts++

	act := k.newActivity()
	act.kind = actISR
	act.level = isrLevel(intr.Irql)
	act.frame = cpu.Frame{Module: intr.Module, Function: intr.Function}
	k.occupy(act)

	entry := k.draw(k.cfg.IsrEntry)
	k.cpu.ResetCharge()
	k.cpu.AddCharge(entry)
	if k.probe.IsrEntered != nil {
		k.probe.IsrEntered(intr.Vector, intr.assertedAt, now.Add(entry))
	}
	k.cpu.Dispatch(intr.Vector, now)
	body := k.cpu.ResetCharge()
	act.remaining = body + k.draw(k.cfg.IsrExit)
	// The dispatch loop's resumeTop schedules the completion.
}
