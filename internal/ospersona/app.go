package ospersona

import (
	"wdmlat/internal/kernel"
	"wdmlat/internal/sim"
)

// Op is one step of an application script.
type Op struct {
	// Compute cycles to execute in thread context.
	Compute sim.Cycles
	// ReadBytes / WriteBytes perform a synchronous file operation of the
	// given size (the app blocks until the disk completes).
	ReadBytes, WriteBytes int
	// UI emits a user-interface event (and its sound-scheme side effects).
	UI bool
	// ThinkMS pauses the app (user think time); MS-Test-driven benchmarks
	// set it to zero ("the complete absence of think time", §3.1.1).
	ThinkMS float64
	// PageFaultPages models a working-set fault burst before the op.
	PageFaultPages int
}

// App is a foreground application: a normal-priority thread executing a
// queue of Ops. Throughput experiments (§4.2) measure how fast an App
// drains a fixed script; stress workloads use Apps to keep the CPU and
// disk busy the way Winstone's applications do.
type App struct {
	m      *Machine
	Name   string
	sem    *kernel.Semaphore
	queue  sim.Queue[Op] // submitted ops not yet popped
	done   uint64
	ioWait *kernel.Event
	idleEv *kernel.Event // signaled every time the queue drains

	// Per-op state plus the closures that consume it, bound once at app
	// creation. Ops are executed millions of times per collection, so the
	// step body passes these stable funcs to tc.Do instead of constructing
	// a capture per op.
	pc       appPC // step's program counter
	op       Op    // current op, set by popFn
	ioBytes  int   // file operation in flight, for ioFn
	ioWrite  bool
	popFn    func()
	finishFn func()
	pfFn     func()
	uiFn     func()
	ioFn     func()
	ioDoneFn func(*kernel.DpcContext)
}

// NewApp creates an application thread at normal priority.
func (m *Machine) NewApp(name string) *App {
	a := &App{
		m:      m,
		Name:   name,
		sem:    m.Kernel.NewSemaphore(0, 1<<30),
		ioWait: m.Kernel.NewEvent(name+".io", kernel.SynchronizationEvent),
		idleEv: m.Kernel.NewEvent(name+".idle", kernel.NotificationEvent),
	}
	a.popFn = func() { a.op = a.queue.PopFront() }
	a.finishFn = func() {
		a.done++
		if a.Pending() == 0 {
			a.m.Kernel.SetEvent(a.idleEv)
		}
	}
	a.pfFn = func() { a.m.PageFaultBurst(a.op.PageFaultPages) }
	a.uiFn = a.m.UIEvent
	a.ioDoneFn = func(c *kernel.DpcContext) { c.SetEvent(a.ioWait) }
	a.ioFn = func() { a.m.FileOp(a.ioBytes, a.ioWrite, a.ioDoneFn) }
	m.Kernel.CreateStepThread(name, kernel.NormalPriority, a.step)
	return a
}

// Submit appends ops to the app's script. Callable from simulation-harness
// context (workload generator events).
func (a *App) Submit(ops ...Op) {
	if len(ops) == 0 {
		return
	}
	for _, op := range ops {
		a.queue.PushBack(op)
	}
	a.m.Kernel.ReleaseSemaphore(a.sem, len(ops))
}

// Done returns the number of completed ops.
func (a *App) Done() uint64 { return a.done }

// Pending returns the number of queued, unfinished ops.
func (a *App) Pending() int { return a.queue.Len() }

// IdleEvent is signaled whenever the app drains its queue; throughput
// harnesses wait on it to time a script.
func (a *App) IdleEvent() *kernel.Event { return a.idleEv }

// appPC is an App's program counter: the stage its next step runs. The
// stages of one op follow in order; a stage whose field is zero makes no
// operation and falls through to the next.
type appPC int

const (
	appWait    appPC = iota // wait for a submitted op
	appPop                  // take it off the queue
	appFault                // page-fault burst
	appUI                   // UI event ...
	appPump                 // ... and its message-pump handling
	appThink                // user think time
	appCompute              // compute
	appRead                 // synchronous read
	appWrite                // synchronous write
	appIOWait               // wait for the disk DPC to signal completion
	appIOCopy               // copy to or from the user buffer
	appFinish               // count the op done
)

// step is the app thread's step body (see kernel.ThreadContext): wait for
// an op, pop it, run its stages, finish it, forever.
func (a *App) step(tc *kernel.ThreadContext) {
	for {
		switch a.pc {
		case appWait:
			a.pc = appPop
			tc.Wait(a.sem)
			return
		case appPop:
			a.pc = appFault
			tc.Do(a.popFn)
			return
		case appFault:
			a.pc = appUI
			if a.op.PageFaultPages > 0 {
				tc.Do(a.pfFn)
				return
			}
		case appUI:
			a.pc = appThink
			if a.op.UI {
				a.pc = appPump
				tc.Do(a.uiFn)
				return
			}
		case appPump:
			a.pc = appThink
			tc.Exec(a.m.MS(0.05)) // message pump handling
			return
		case appThink:
			a.pc = appCompute
			if a.op.ThinkMS > 0 {
				tc.Sleep(a.m.MS(a.op.ThinkMS))
				return
			}
		case appCompute:
			a.pc = appRead
			if a.op.Compute > 0 {
				tc.Exec(a.op.Compute)
				return
			}
		case appRead:
			a.pc = appWrite
			if a.op.ReadBytes > 0 {
				a.fileOp(tc, a.op.ReadBytes, false)
				return
			}
		case appWrite:
			a.pc = appFinish
			if a.op.WriteBytes > 0 {
				a.fileOp(tc, a.op.WriteBytes, true)
				return
			}
		case appIOWait:
			a.pc = appIOCopy
			tc.Wait(a.ioWait)
			return
		case appIOCopy:
			a.pc = appWrite
			if a.ioWrite {
				a.pc = appFinish
			}
			tc.Exec(sim.Cycles(a.ioBytes/64) + 2000) // copy to user buffer
			return
		case appFinish:
			a.pc = appWait
			tc.Do(a.finishFn)
			return
		}
	}
}

// fileOp starts a blocking file operation: submit it through the
// machine's file-system path; the next stages wait for the disk DPC to
// signal completion and copy the data.
func (a *App) fileOp(tc *kernel.ThreadContext, bytes int, write bool) {
	a.ioBytes, a.ioWrite = bytes, write
	a.pc = appIOWait
	tc.Do(a.ioFn)
}
