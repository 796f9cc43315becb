package kernel

import "wdmlat/internal/sim"

// WorkItem is a unit of passive-level work executed by the kernel worker
// thread (ExQueueWorkItem). The paper singles the work-item queue out: it
// is "serviced by a real-time default priority thread, which accounts for
// the large difference between high and default priority threads under
// NT 4.0" (§4.2). Workloads enqueue work items to generate exactly that
// interference.
type WorkItem struct {
	Name   string
	Cycles sim.Cycles
}

// QueueWorkItem appends w to the work queue and wakes the worker. Safe to
// call from simulation-harness context and from ISR/DPC contexts.
func (k *Kernel) QueueWorkItem(w WorkItem) {
	if w.Cycles < 0 {
		panic("kernel: invalid work item")
	}
	k.workQ.PushBack(w)
	k.workSem.release(1)
	k.maybeRun()
}

// WorkQueueLen returns the number of queued-but-unstarted work items.
func (k *Kernel) WorkQueueLen() int { return k.workQ.Len() }

// Worker returns the worker thread (available after Boot).
func (k *Kernel) Worker() *Thread { return k.worker }

// workerStep is the ExWorkerThread step body: wait on the work semaphore,
// pop one item, execute its cost, and wait again. workerWoke is its
// program counter: set while the semaphore wait is in flight. The pop runs
// in the step itself, because a resumed body holds the CPU with nothing
// runnable above it and a pop readies nothing. Each queued item releases
// the semaphore once, so a satisfied wait always finds one queued.
func (k *Kernel) workerStep(tc *ThreadContext) {
	if k.workerWoke {
		k.workerWoke = false
		if w := k.workQ.PopFront(); w.Cycles > 0 {
			tc.Exec(w.Cycles)
			return
		}
	}
	k.workerWoke = true
	tc.Wait(k.workSem)
}
