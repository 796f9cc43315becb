package kernel

import (
	"fmt"

	"wdmlat/internal/sim"
)

// threadState is the scheduler-visible lifecycle state of a thread.
type threadState int

const (
	threadReady threadState = iota
	threadStandby
	threadRunning
	threadWaiting
	threadTerminated
)

func (s threadState) String() string {
	switch s {
	case threadReady:
		return "ready"
	case threadStandby:
		return "standby"
	case threadRunning:
		return "running"
	case threadWaiting:
		return "waiting"
	case threadTerminated:
		return "terminated"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// reqKind names the one operation a thread makes per resumption.
type reqKind int

const (
	// reqNone is the zero value: the body returned without an operation,
	// which ends the thread.
	reqNone reqKind = iota
	reqExec
	// reqCall marks a kernel call the body has already run inline (see
	// ThreadContext.call); serveOne only decides whether it must yield.
	reqCall
	reqWait
	reqRaisedExec
	reqWaitAny
	// reqYield carries no payload. Only the blocking adapter makes it: its
	// body ran a kernel call inline (see blockingBody.call) and something
	// above thread level became runnable, so the dispatch loop must take a
	// pass before the body continues.
	reqYield
)

// request is a thread's operation, recorded by the ThreadContext method
// that makes it and applied by serveOne.
type request struct {
	kind    reqKind
	cycles  sim.Cycles // reqExec, reqRaisedExec
	obj     Waitable   // reqWait
	objs    []Waitable // reqWaitAny
	timeout sim.Cycles // reqWait/reqWaitAny; <0 means infinite
	irql    IRQL       // reqRaisedExec
}

// waitResult is the outcome of a thread's latest wait.
type waitResult struct {
	status WaitStatus
	index  int // reqWaitAny: which object satisfied the wait
}

// Thread is a simulated kernel-mode thread. It has no goroutine of its
// own: its body is a step function that the scheduler calls on the kernel
// goroutine each time the thread resumes (see ThreadContext for the step
// contract), the way ISRs and DPCs run as callbacks in whatever context
// the machine is in. The body acts on the machine solely through its
// ThreadContext, and simulated time only passes at Exec/Wait boundaries.
// CreateThread adapts a blocking-style body onto this step path.
type Thread struct {
	k        *Kernel
	Name     string
	priority int // effective (base + any dynamic boost)
	base     int // assigned priority
	state    threadState

	step   func(tc *ThreadContext)
	tc     ThreadContext
	result waitResult // outcome of the latest wait

	// Execution-segment state while running.
	execRemaining sim.Cycles
	execDone      *sim.Event
	quantumEvent  *sim.Event
	quantumLeft   sim.Cycles
	segStart      sim.Time
	needsResume   bool

	// Wait state.
	waitObj       Waitable
	waitAny       []Waitable // multi-object wait registrations
	waitTimeoutEv *sim.Event

	readiedAt  sim.Time
	cpuTime    sim.Cycles
	switches   uint64
	doneEvent  *Event // signaled at termination; waitable for joins
	terminated bool

	// Per-thread event callbacks, bound once at creation so the
	// scheduler's hot paths (exec segments, quanta, wait timeouts, context
	// switches) allocate no closure per event.
	onExecDoneFn    func(sim.Time)
	onQuantumFn     func(sim.Time)
	onWaitTimeoutFn func(sim.Time)
	onSwitchDoneFn  func(sim.Time)
	onRaisedDoneFn  func(sim.Time)
	switchReadiedAt sim.Time   // readiedAt latched when the switch began
	raisedCycles    sim.Cycles // cost of the raised-IRQL section in flight
}

// CreateStepThread creates and readies a kernel thread
// (PsCreateSystemThread) whose body is the step function step. The
// scheduler first calls it when it first dispatches the thread, and again
// at every resumption after that; see ThreadContext for the contract.
func (k *Kernel) CreateStepThread(name string, priority int, step func(tc *ThreadContext)) *Thread {
	t := k.newThread(name, priority, step)
	k.startThread(t)
	return t
}

// newThread builds a thread without readying it.
func (k *Kernel) newThread(name string, priority int, step func(tc *ThreadContext)) *Thread {
	if priority < MinPriority || priority > MaxPriority {
		panic(fmt.Sprintf("kernel: priority %d out of range", priority))
	}
	if step == nil {
		panic("kernel: nil thread body")
	}
	t := &Thread{
		k:           k,
		Name:        name,
		priority:    priority,
		base:        priority,
		state:       threadReady,
		step:        step,
		quantumLeft: k.cfg.Quantum,
		readiedAt:   k.now(),
		needsResume: true,
	}
	t.tc = ThreadContext{k: k, t: t}
	t.doneEvent = k.NewEvent(name+".done", NotificationEvent)
	t.onExecDoneFn = func(now sim.Time) { k.onExecDone(t, now) }
	t.onQuantumFn = func(now sim.Time) { k.onQuantumExpiry(t, now) }
	t.onWaitTimeoutFn = func(sim.Time) { k.onWaitTimeout(t) }
	t.onSwitchDoneFn = func(now sim.Time) {
		t.state = threadRunning
		t.switches++
		k.counters.Switches++
		k.current = t
		if k.probe.ThreadDispatched != nil {
			k.probe.ThreadDispatched(t, t.switchReadiedAt, now)
		}
	}
	t.onRaisedDoneFn = func(sim.Time) {
		t.cpuTime += t.raisedCycles
		t.needsResume = true
	}
	k.threads = append(k.threads, t)
	return t
}

// startThread readies a new thread; it first runs when dispatched.
func (k *Kernel) startThread(t *Thread) {
	k.pushReadyBack(t)
	if k.probe.ThreadReadied != nil {
		k.probe.ThreadReadied(t, t.readiedAt)
	}
	k.maybeRun()
}

// Priority returns the thread's current effective priority (base plus any
// dynamic boost).
func (t *Thread) Priority() int { return t.priority }

// BasePriority returns the thread's assigned priority.
func (t *Thread) BasePriority() int { return t.base }

// CPUTime returns the accumulated thread-context execution time.
func (t *Thread) CPUTime() sim.Cycles { return t.cpuTime }

// Switches returns how many times the thread has been dispatched.
func (t *Thread) Switches() uint64 { return t.switches }

// Terminated reports whether the thread has exited.
func (t *Thread) Terminated() bool { return t.state == threadTerminated }

// Done returns a notification event signaled when the thread terminates.
func (t *Thread) Done() *Event { return t.doneEvent }

// State returns the scheduler state name, for diagnostics.
func (t *Thread) State() string { return t.state.String() }

// ThreadContext is the API surface a thread body uses to act on the
// machine. Each method that logically takes time goes through the
// scheduler, so preemption, interrupts and overhead episodes interleave
// exactly as they would on hardware.
//
// The step contract. A thread's body is a step function: the scheduler
// calls it on the kernel goroutine each time the thread resumes, and it
// makes exactly one ThreadContext operation as its last action and
// returns. The operations are Exec, ExecDist, ExecRaised, the waits
// (Wait, WaitTimeout, WaitAny, WaitAnyTimeout, Sleep) and the kernel
// calls (Do, SetEvent, ResetEvent, ReleaseSemaphore, ReleaseMutex,
// SetPriority, QueueDpc, SetTimer, CancelTimer, CompleteIrp,
// QueueWorkItem). A kernel call runs at once, at the body's instant; an
// Exec or a wait is only recorded, and the scheduler applies it after the
// body returns. So a body that must run past an operation keeps its own
// program counter and picks up there on its next call, which comes when
// the operation has completed. Some operations complete inline: a wait
// its poll satisfies, Exec(0), or a kernel call that readies nothing
// above the thread. After one of these the next call follows at once with
// no dispatch pass, just as a blocking body continues past them. A second
// operation in one call panics. Returning without an operation ends the
// thread. The wait methods return zero values to a step body, because the
// wait has not happened yet when they return.
//
// CreateThread instead runs a blocking-style body, which loops and makes
// operations in sequence, on a goroutine of its own; there every method
// returns when its operation has completed, and the wait methods report
// the outcome.
type ThreadContext struct {
	k *Kernel
	t *Thread
	// req is the operation of the current resumption; serveOne clears it
	// before each call of the step body and applies it afterwards.
	req request
	// body is the goroutine adapter of a CreateThread body, nil for a step
	// body.
	body *blockingBody
}

// Thread returns the underlying thread.
func (tc *ThreadContext) Thread() *Thread { return tc.t }

// Kernel returns the owning kernel (read-only use).
func (tc *ThreadContext) Kernel() *Kernel { return tc.k }

// Now reads the time stamp counter — GetCycleCount from thread context.
func (tc *ThreadContext) Now() sim.Time { return tc.k.cpu.TSC() }

// do makes the operation r: a step body records it for serveOne, a
// blocking body hands it to its adapter and returns the outcome once the
// operation has completed.
func (tc *ThreadContext) do(r request) waitResult {
	if tc.body != nil {
		return tc.body.do(tc, r)
	}
	tc.claim()
	tc.req = r
	return waitResult{}
}

// claim enforces one operation per step call.
func (tc *ThreadContext) claim() {
	if tc.req.kind != reqNone {
		panic("kernel: thread " + tc.t.Name + " made a second operation in one step")
	}
}

// Exec consumes c cycles of CPU in thread context. The operation completes
// when the thread has actually accumulated that much execution, however
// long that takes in virtual time under preemption. Exec(0) completes
// inline.
func (tc *ThreadContext) Exec(c sim.Cycles) {
	if c < 0 {
		panic("kernel: negative exec")
	}
	tc.do(request{kind: reqExec, cycles: c})
}

// ExecDist draws a duration from d and executes it.
func (tc *ThreadContext) ExecDist(d sim.Dist) {
	tc.Exec(d.Draw(tc.k.rng))
}

// ExecRaised executes c cycles at a raised IRQL (KeRaiseIrql / work /
// KeLowerIrql). Per the WDM hierarchy (§4.1), real-time threads "can raise
// IRQL from PASSIVE (lowest) to arbitrarily high levels (i.e., block
// interrupts)": at DISPATCH_LEVEL the section blocks DPCs and rescheduling;
// at HIGH_LEVEL it masks interrupts outright. The section itself is
// preempted only by work above its level.
func (tc *ThreadContext) ExecRaised(irql IRQL, c sim.Cycles) {
	if c < 0 {
		panic("kernel: negative raised exec")
	}
	if irql <= PassiveLevel || irql > HighLevel {
		panic(fmt.Sprintf("kernel: ExecRaised at %v", irql))
	}
	tc.do(request{kind: reqRaisedExec, cycles: c, irql: irql})
}

// call runs fn in kernel context at the current instant (used to build the
// Ke*/Io* wrappers below; fn must not block).
//
// While a thread body runs, virtual time stands still and nothing else
// touches kernel state, so fn executes right here, at the body's instant,
// with no dispatch pass; only the operation is recorded, and fn is never
// stored, so the closures of the wrappers below stay off the heap. A pass
// is only needed when fn made work runnable above thread level (asserted
// an interrupt, queued a DPC, injected an episode, readied a
// higher-priority thread): exactly the set the dispatch loop would admit
// before the body continues (see mustYield). Any maybeRun that fn triggers
// is a no-op either way — the body runs inside the dispatch loop, so the
// re-entrancy guard holds.
func (tc *ThreadContext) call(fn func()) {
	if tc.body != nil {
		tc.body.call(tc, fn)
		return
	}
	tc.claim()
	tc.req.kind = reqCall
	fn()
}

// Do runs fn in kernel context at the current virtual instant — the
// general escape hatch for driver bodies that must poke hardware or
// harness state from thread context. fn must not block or advance time.
func (tc *ThreadContext) Do(fn func()) { tc.call(fn) }

// Wait blocks until obj is signaled (KeWaitForSingleObject, infinite).
//
// A wait an initial poll satisfies never blocks, and poll side effects
// (auto-reset clear, semaphore decrement, mutex acquire) make nothing
// runnable, so by the same argument as call it completes inline.
func (tc *ThreadContext) Wait(obj Waitable) WaitStatus {
	return tc.do(request{kind: reqWait, obj: obj, timeout: -1}).status
}

// WaitAny blocks until any of the objects is signaled
// (KeWaitForMultipleObjects with WaitAny), returning the index of the
// satisfying object. Objects are polled in argument order, so earlier
// objects win ties — the NT semantics.
func (tc *ThreadContext) WaitAny(objs ...Waitable) int {
	if len(objs) == 0 {
		panic("kernel: WaitAny with no objects")
	}
	return tc.do(request{kind: reqWaitAny, objs: objs, timeout: -1}).index
}

// WaitAnyTimeout is WaitAny with a timeout; index is -1 on timeout.
func (tc *ThreadContext) WaitAnyTimeout(d sim.Cycles, objs ...Waitable) (int, WaitStatus) {
	if len(objs) == 0 {
		panic("kernel: WaitAny with no objects")
	}
	if d < 0 {
		panic("kernel: negative wait timeout")
	}
	r := tc.do(request{kind: reqWaitAny, objs: objs, timeout: d})
	if r.status == WaitTimedOut {
		return -1, r.status
	}
	return r.index, r.status
}

// WaitTimeout blocks until obj is signaled or d cycles elapse. A poll that
// succeeds completes the wait before the timeout is ever armed.
func (tc *ThreadContext) WaitTimeout(obj Waitable, d sim.Cycles) WaitStatus {
	if d < 0 {
		panic("kernel: negative wait timeout")
	}
	return tc.do(request{kind: reqWait, obj: obj, timeout: d}).status
}

// Sleep blocks the thread for d cycles (KeDelayExecutionThread). Sleep(0)
// yields: the thread goes to the back of its ready queue.
func (tc *ThreadContext) Sleep(d sim.Cycles) {
	if d < 0 {
		panic("kernel: negative sleep")
	}
	tc.do(request{kind: reqWait, obj: nil, timeout: d})
}

// SetEvent signals an event from thread context (KeSetEvent).
func (tc *ThreadContext) SetEvent(ev *Event) { tc.call(func() { ev.set() }) }

// ResetEvent clears an event (KeResetEvent).
func (tc *ThreadContext) ResetEvent(ev *Event) { tc.call(ev.reset) }

// ReleaseSemaphore releases n units (KeReleaseSemaphore).
func (tc *ThreadContext) ReleaseSemaphore(s *Semaphore, n int) {
	tc.call(func() { s.release(n) })
}

// ReleaseMutex releases a mutex owned by this thread (KeReleaseMutex).
func (tc *ThreadContext) ReleaseMutex(m *Mutex) {
	tc.call(func() { m.release(tc.t) })
}

// SetPriority changes this thread's priority (KeSetPriorityThread). The
// paper's measurement thread raises itself to real-time priority this way
// (§2.2.4).
func (tc *ThreadContext) SetPriority(p int) {
	if p < MinPriority || p > MaxPriority {
		panic(fmt.Sprintf("kernel: priority %d out of range", p))
	}
	tc.call(func() {
		tc.t.base = p
		tc.t.priority = p
	})
}

// QueueDpc inserts a DPC from thread context.
func (tc *ThreadContext) QueueDpc(d *DPC) { tc.call(func() { tc.k.queueDpc(d) }) }

// SetTimer (re)arms a timer relative to now (KeSetTimer).
func (tc *ThreadContext) SetTimer(t *Timer, delay sim.Cycles, dpc *DPC) {
	tc.call(func() { tc.k.setTimer(t, delay, dpc) })
}

// CancelTimer disarms a timer (KeCancelTimer).
func (tc *ThreadContext) CancelTimer(t *Timer) { tc.call(func() { tc.k.cancelTimer(t) }) }

// CompleteIrp completes an I/O request packet (IoCompleteRequest).
func (tc *ThreadContext) CompleteIrp(irp *IRP) { tc.call(func() { tc.k.completeIrp(irp) }) }

// QueueWorkItem schedules passive-level work on the kernel worker.
func (tc *ThreadContext) QueueWorkItem(w WorkItem) { tc.call(func() { tc.k.QueueWorkItem(w) }) }
