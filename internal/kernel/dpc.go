package kernel

import (
	"wdmlat/internal/cpu"
	"wdmlat/internal/sim"
)

// Importance is a DPC queue-insertion policy. Ordinary DPCs queue FIFO
// (paper §2.1: "Because ordinary DPCs queue in FIFO order, DPC latency
// encompasses ... the aggregate time to execute all DPCs in the DPC queue
// when the DPC was enqueued"); HighImportance inserts at the queue head.
type Importance int

// The three WDM DPC importances (paper §4.1).
const (
	LowImportance Importance = iota
	MediumImportance
	HighImportance
)

// String implements fmt.Stringer.
func (i Importance) String() string {
	switch i {
	case LowImportance:
		return "Low"
	case MediumImportance:
		return "Medium"
	case HighImportance:
		return "High"
	default:
		return "Importance(?)"
	}
}

// DPC is a deferred procedure call — the unit of "interrupt context" work
// in WDM (a KDPC). Bodies receive a DpcContext and account their execution
// cost through Charge.
type DPC struct {
	Name       string
	Importance Importance
	fn         func(*DpcContext)

	ctx *DpcContext // reusable body context, bound on first run

	queued   bool
	queuedAt sim.Time
}

// NewDPC initializes a DPC (KeInitializeDpc).
func NewDPC(name string, imp Importance, fn func(*DpcContext)) *DPC {
	if fn == nil {
		panic("kernel: nil DPC body")
	}
	return &DPC{Name: name, Importance: imp, fn: fn}
}

// Queued reports whether the DPC is currently in the queue.
func (d *DPC) Queued() bool { return d.queued }

// DpcContext is the execution environment of a DPC body: it runs at
// DISPATCH_LEVEL, may signal dispatcher objects, queue further DPCs, set
// timers and complete IRPs, but may not wait.
type DpcContext struct {
	k *Kernel
	d *DPC
}

// Now reads the time stamp counter including charged cycles.
func (c *DpcContext) Now() sim.Time { return c.k.cpu.TSC() }

// Charge accounts d cycles of DPC execution.
func (c *DpcContext) Charge(d sim.Cycles) { c.k.cpu.AddCharge(d) }

// SetEvent signals an event (KeSetEvent at DISPATCH_LEVEL).
func (c *DpcContext) SetEvent(ev *Event) { ev.set() }

// ReleaseSemaphore releases n units of a semaphore.
func (c *DpcContext) ReleaseSemaphore(s *Semaphore, n int) { s.release(n) }

// QueueDpc inserts another DPC into the queue.
func (c *DpcContext) QueueDpc(d *DPC) bool { return c.k.queueDpc(d) }

// SetTimer (re)arms a timer relative to now (KeSetTimer).
func (c *DpcContext) SetTimer(t *Timer, delay sim.Cycles, dpc *DPC) { c.k.setTimer(t, delay, dpc) }

// CompleteIrp completes an I/O request packet back to its originator.
func (c *DpcContext) CompleteIrp(irp *IRP) { c.k.completeIrp(irp) }

// QueueWorkItem schedules passive-level work on the kernel worker thread.
func (c *DpcContext) QueueWorkItem(w WorkItem) { c.k.QueueWorkItem(w) }

// Kernel returns the owning kernel, for instrumentation-style drivers that
// need read-only access (e.g. the cause tool reading the current frame).
func (c *DpcContext) Kernel() *Kernel { return c.k }

// queueDpc is the internal KeInsertQueueDpc.
func (k *Kernel) queueDpc(d *DPC) bool {
	if d.queued {
		return false
	}
	d.queued = true
	d.queuedAt = k.now()
	if d.Importance == HighImportance {
		k.dpcQ.PushFront(d)
	} else {
		k.dpcQ.PushBack(d)
	}
	if k.probe.DpcQueued != nil {
		k.probe.DpcQueued(d, d.queuedAt)
	}
	k.maybeRun()
	return true
}

// QueueDpc inserts a DPC from simulation-harness context (engine callbacks
// such as device models). Driver code should use the contexts instead.
func (k *Kernel) QueueDpc(d *DPC) bool { return k.queueDpc(d) }

// startDPC pops the queue head and runs it as a DISPATCH_LEVEL activity.
func (k *Kernel) startDPC() {
	d := k.dpcQ.PopFront()
	d.queued = false
	k.counters.DPCs++

	act := k.newActivity()
	act.kind = actDPC
	act.level = levelDispatch
	act.frame = cpu.Frame{Module: d.Name, Function: "DPC"}
	k.occupy(act)

	k.cpu.ResetCharge()
	k.cpu.AddCharge(k.draw(k.cfg.DpcDispatch))
	if k.probe.DpcStarted != nil {
		k.probe.DpcStarted(d, d.queuedAt, k.cpu.TSC())
	}
	if d.ctx == nil || d.ctx.k != k {
		d.ctx = &DpcContext{k: k, d: d}
	}
	d.fn(d.ctx)
	act.remaining = k.cpu.ResetCharge()
}
