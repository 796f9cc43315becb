// Package wdm is the driver-facing surface of the simulated Windows Driver
// Model: driver objects with dispatch routines, device I/O via IRPs, and
// the Ke*/Io*/Ps* helpers the paper's pseudocode uses (§2.2). A driver
// written against this package is "binary portable" in the paper's sense:
// the identical driver value runs unmodified on the NT 4.0 and the
// Windows 98 personality, because both are instantiations of the same
// kernel mechanics.
package wdm

import (
	"fmt"

	"wdmlat/internal/kernel"
	"wdmlat/internal/sim"
)

// DriverEntry is the driver initialization routine, called at load time
// (paper §2.2.1). It receives the driver object to populate with dispatch
// routines and may create timers, events and system threads.
type DriverEntry func(drv *Driver) error

// Driver is a loaded WDM driver: a named device object plus its dispatch
// table. Only the read dispatch is modeled — it is the only entry point the
// paper's tools use ("the latencies are returned to the application via WDM
// I/O Request Packets which the application supplies via a call to the
// Win32 ReadFileEx API").
type Driver struct {
	name string
	k    *kernel.Kernel

	// MajorRead is the IRP_MJ_READ dispatch routine (LatRead in the
	// paper's pseudocode). DriverEntry must set it before the control
	// application can issue reads.
	MajorRead func(irp *kernel.IRP)

	unloaded bool
}

// Load creates a driver object and runs its DriverEntry.
func Load(k *kernel.Kernel, name string, entry DriverEntry) (*Driver, error) {
	if entry == nil {
		return nil, fmt.Errorf("wdm: driver %q has no DriverEntry", name)
	}
	drv := &Driver{name: name, k: k}
	if err := entry(drv); err != nil {
		return nil, fmt.Errorf("wdm: DriverEntry of %q failed: %w", name, err)
	}
	return drv, nil
}

// Name returns the driver's device name.
func (d *Driver) Name() string { return d.name }

// Kernel returns the OS instance the driver is loaded on.
func (d *Driver) Kernel() *kernel.Kernel { return d.k }

// Unload marks the driver unloaded; subsequent reads fail.
func (d *Driver) Unload() { d.unloaded = true }

// ReadFileEx is the control-application side of the exchange: it allocates
// an IRP, attaches the caller's completion routine, and invokes the
// driver's read dispatch. The returned IRP completes asynchronously via
// IoCompleteRequest.
func (d *Driver) ReadFileEx(onComplete func(irp *kernel.IRP, at sim.Time)) (*kernel.IRP, error) {
	if d.unloaded {
		return nil, fmt.Errorf("wdm: read on unloaded driver %q", d.name)
	}
	if d.MajorRead == nil {
		return nil, fmt.Errorf("wdm: driver %q has no read dispatch", d.name)
	}
	irp := d.k.NewIRP()
	irp.OnComplete = onComplete
	d.MajorRead(irp)
	return irp, nil
}

// --- Ke*/Io*/Ps* conveniences used by driver bodies -----------------------

// GetCycleCount reads the Pentium time stamp counter (paper §2.2.5).
func (d *Driver) GetCycleCount() sim.Time { return d.k.CPU().TSC() }

// KeCreateTimer creates a single-shot timer (KeInitializeTimer).
func (d *Driver) KeCreateTimer(name string) *kernel.Timer {
	return d.k.NewTimer(d.name + "." + name)
}

// KeCreateEvent creates an event object (KeInitializeEvent).
func (d *Driver) KeCreateEvent(name string, kind kernel.EventKind) *kernel.Event {
	return d.k.NewEvent(d.name+"."+name, kind)
}

// KeSetTimer arms a single-shot timer whose expiry queues dpc, with the
// delay given in PIT ticks — exactly how the measurement driver programs
// its "ARBITRARY_DELAY" (§2.2.2). Callable from any driver context.
func (d *Driver) KeSetTimer(t *kernel.Timer, delayTicks int, dpc *kernel.DPC) {
	if delayTicks <= 0 {
		panic("wdm: KeSetTimer with non-positive tick delay")
	}
	d.k.SetTimer(t, sim.Cycles(delayTicks)*d.k.TickPeriod(), dpc)
}

// PsCreateSystemThread creates a kernel-mode thread at the default priority
// whose body is the step function step (see kernel.ThreadContext for the
// step contract); the thread body typically raises its own priority via
// KeSetPriorityThread, as LatThreadFunc does (§2.2.4).
func (d *Driver) PsCreateSystemThread(name string, step func(tc *kernel.ThreadContext)) *kernel.Thread {
	return d.k.CreateStepThread(d.name+"."+name, kernel.NormalPriority, step)
}

// IoCompleteRequest completes an IRP back to the control application.
// Callable from DPC or harness context; from thread context use the
// ThreadContext method so the completion charges to the thread.
func (d *Driver) IoCompleteRequest(irp *kernel.IRP) { d.k.CompleteIrp(irp) }
