package kernel

import (
	"math/bits"

	"wdmlat/internal/cpu"
	"wdmlat/internal/sim"
)

// pushReadyBack appends t to the tail of its priority's ready queue.
func (k *Kernel) pushReadyBack(t *Thread) {
	k.ready[t.priority].PushBack(t)
	k.readyMask |= 1 << uint(t.priority)
}

// pushReadyFront prepends t, used when a thread is preempted so it runs
// next among its peers.
func (k *Kernel) pushReadyFront(t *Thread) {
	k.ready[t.priority].PushFront(t)
	k.readyMask |= 1 << uint(t.priority)
}

// bestReadyPriority returns the highest priority with a ready thread, or -1.
func (k *Kernel) bestReadyPriority() int {
	return bits.Len32(k.readyMask) - 1
}

// popReady removes and returns the head of the given priority queue.
func (k *Kernel) popReady(p int) *Thread {
	t := k.ready[p].PopFront()
	if k.ready[p].Len() == 0 {
		k.readyMask &^= 1 << uint(p)
	}
	return t
}

// hasReadyAt reports whether another thread is ready at priority p.
func (k *Kernel) hasReadyAt(p int) bool { return k.ready[p].Len() > 0 }

// Current returns the thread currently owning the CPU base level, or nil.
func (k *Kernel) Current() *Thread { return k.current }

// scheduleStep runs once the occupancy stack is empty. It decides which
// thread owns the CPU and either commits the CPU (returns false: an exec
// segment or context switch is in flight, or the CPU went idle) or asks the
// dispatch loop to re-evaluate (returns true).
func (k *Kernel) scheduleStep() bool {
	if t := k.current; t != nil {
		if t.state != threadRunning {
			panic("kernel: current thread " + t.Name + " in state " + t.state.String())
		}
		// Preemption check: a higher-priority thread boots the current one
		// back to the head of its ready queue.
		if best := k.bestReadyPriority(); best > t.priority {
			k.suspendExec(t, k.now())
			t.state = threadReady
			t.readiedAt = k.now()
			k.pushReadyFront(t)
			k.current = nil
			return true
		}
		if t.execRemaining > 0 {
			if t.execDone == nil {
				k.beginExecSegment(t)
			}
			return false
		}
		if t.needsResume {
			return k.serveOne(t)
		}
		panic("kernel: running thread " + t.Name + " has nothing to do")
	}

	best := k.bestReadyPriority()
	if best < 0 {
		return false // idle: the CPU waits for the next interrupt
	}
	next := k.popReady(best)
	k.startSwitch(next)
	return true
}

// startSwitch models the context-switch cost as a scheduler-locked
// activity; the incoming thread is in standby until it completes. Including
// the cost inline (rather than as a free transition) is deliberate: the
// paper defines thread latency to *include* context switch and cache refill
// time (§2.1), unlike hbench-style microbenchmarks.
func (k *Kernel) startSwitch(next *Thread) {
	next.state = threadStandby
	next.switchReadiedAt = next.readiedAt
	act := k.newActivity()
	act.kind = actSwitch
	act.level = levelSchedLock
	act.frame = cpu.Frame{Module: "NTKERN", Function: "_SwapContext"}
	act.remaining = k.draw(k.cfg.ContextSwitch)
	act.onComplete = next.onSwitchDoneFn
	k.occupy(act)
}

// beginExecSegment (re)starts the clock on the current thread's pending
// execution.
func (k *Kernel) beginExecSegment(t *Thread) {
	t.segStart = k.now()
	t.execDone = k.eng.After(t.execRemaining, t.onExecDoneFn)
	if k.cfg.Quantum > 0 {
		if t.quantumLeft <= 0 {
			t.quantumLeft = k.cfg.Quantum
		}
		// Only arm the expiry event when it can actually fire: a segment
		// shorter than the remaining quantum completes first (equal due
		// times dispatch the earlier-scheduled completion first, which
		// cancels the expiry), so the event would be pure queue churn.
		// quantumLeft bookkeeping is unaffected — every suspend/complete
		// path decrements it by elapsed time regardless.
		if t.execRemaining >= t.quantumLeft {
			t.quantumEvent = k.eng.After(t.quantumLeft, t.onQuantumFn)
		}
	}
}

// suspendExec pauses the current thread's execution segment, charging
// elapsed time to the thread and its quantum.
func (k *Kernel) suspendExec(t *Thread, now sim.Time) {
	if t.execDone == nil {
		return
	}
	elapsed := now.Sub(t.segStart)
	k.eng.Cancel(t.execDone)
	t.execDone = nil
	if t.quantumEvent != nil {
		k.eng.Cancel(t.quantumEvent)
		t.quantumEvent = nil
	}
	if elapsed > t.execRemaining {
		elapsed = t.execRemaining
	}
	t.execRemaining -= elapsed
	t.quantumLeft -= elapsed
	t.cpuTime += elapsed
	k.counters.ThreadCycles += elapsed
	if t.execRemaining == 0 {
		// Suspended at the exact instant the segment completed (the
		// cancelled completion event shared this timestamp): the request
		// is satisfied, so the body owes us its next operation, not an
		// exec.
		t.needsResume = true
	}
}

// onExecDone fires when the current exec segment runs to completion.
func (k *Kernel) onExecDone(t *Thread, now sim.Time) {
	elapsed := now.Sub(t.segStart)
	t.execDone = nil
	if t.quantumEvent != nil {
		k.eng.Cancel(t.quantumEvent)
		t.quantumEvent = nil
	}
	t.execRemaining = 0
	t.quantumLeft -= elapsed
	t.cpuTime += elapsed
	k.counters.ThreadCycles += elapsed
	t.needsResume = true
	k.maybeRun()
}

// onQuantumExpiry fires when the running thread exhausts its timeslice. If
// a peer is ready at the same priority the thread round-robins to the tail
// of its queue; otherwise the quantum simply refreshes. This is the
// mechanism that makes the NT work-item worker (RT default priority)
// interfere with the paper's priority-24 measurement thread while leaving
// the priority-28 thread untouched (§4.2).
func (k *Kernel) onQuantumExpiry(t *Thread, now sim.Time) {
	t.quantumEvent = nil
	// Boost decay: one level per expired quantum, back toward the base.
	if t.priority > t.base {
		t.priority--
	}
	if !k.hasReadyAt(t.priority) {
		t.quantumLeft = k.cfg.Quantum
		if t.execDone != nil {
			t.quantumEvent = k.eng.After(t.quantumLeft, t.onQuantumFn)
		}
		return
	}
	// Round-robin: pause the exec, refresh the quantum, go to the tail.
	k.suspendExec(t, now)
	t.quantumLeft = k.cfg.Quantum
	t.state = threadReady
	t.readiedAt = now
	k.pushReadyBack(t)
	k.current = nil
	k.maybeRun()
}

// serveOne resumes the current thread: it calls the thread's step body on
// the kernel goroutine and applies the one operation the body made. The
// body runs in zero virtual time; only Exec/Wait let time pass. An
// operation that completes inline — a wait its poll satisfies, Exec(0), a
// kernel call after which mustYield is false — calls the body again at
// once, with no dispatch pass, just as a blocking body continues past it.
// The return value follows the scheduleStep contract: true asks the
// dispatch loop to re-evaluate, false means the CPU is committed.
func (k *Kernel) serveOne(t *Thread) bool {
	t.needsResume = false
	tc := &t.tc
	for {
		tc.req = request{}
		t.step(tc)
		req := &tc.req
		switch req.kind {
		case reqNone:
			// The body returned without an operation: the thread ends.
			t.state = threadTerminated
			t.terminated = true
			k.current = nil
			t.doneEvent.set()
			return true

		case reqExec:
			if req.cycles == 0 {
				continue
			}
			// Start the segment right away: a resumed body holds the CPU
			// with nothing above thread level pending (the loop drained it
			// all before resuming, and kernel calls that arm such work
			// yield back), and the ready set is unchanged since the last
			// preemption check, so the loop pass that would otherwise start
			// it is provably a no-op.
			t.execRemaining = req.cycles
			k.beginExecSegment(t)
			return false

		case reqCall:
			// The body already ran the call (see ThreadContext.call).
			if !k.mustYield(t) {
				continue
			}
			t.needsResume = true

		case reqYield:
			t.needsResume = true

		case reqRaisedExec:
			// Same argument as reqExec: once the raised section occupies
			// the CPU, the skipped loop pass would only find it running and
			// return.
			return k.beginRaisedExec(t, req)

		case reqWait:
			if k.beginWait(t, req) {
				continue
			}

		case reqWaitAny:
			if k.beginWaitAny(t, req) {
				continue
			}
		}
		return true
	}
}

// mustYield reports whether, after a kernel call its body made, thread t
// must let the dispatch loop take a pass before it continues: the call
// made work runnable above thread level or readied a thread that outranks
// t. Nothing else can have changed, because nothing but the body runs
// between its resumption and its next operation.
func (k *Kernel) mustYield(t *Thread) bool {
	return k.irqPending > 0 || k.dpcQ.Len() > 0 || k.PendingEpisodes() > 0 ||
		k.bestReadyPriority() > t.priority
}

// beginRaisedExec runs a thread's raised-IRQL section as a CPU occupancy at
// the matching preemption level: DISPATCH_LEVEL blocks DPCs and
// rescheduling, device IRQLs additionally hold off lower interrupts, and
// HIGH_LEVEL masks everything. The thread stays current; its body resumes
// when the section completes.
func (k *Kernel) beginRaisedExec(t *Thread, req *request) bool {
	if req.cycles <= 0 {
		t.needsResume = true
		return true
	}
	level := levelDispatch
	switch {
	case req.irql >= HighLevel:
		level = levelIntMask
	case req.irql >= MinDeviceIRQL:
		level = isrLevel(req.irql)
	}
	t.raisedCycles = req.cycles
	act := k.newActivity()
	act.kind = actEpisode
	act.level = level
	act.frame = cpu.Frame{Module: t.Name, Function: "_KeRaiseIrql"}
	act.remaining = req.cycles
	act.onComplete = t.onRaisedDoneFn
	k.occupy(act)
	// The dispatch-loop pass this replaces would find nothing above the
	// section's level (see serveOne) and land in resumeTop; arm the
	// completion clock directly instead.
	k.resumeTop()
	return false
}

// beginWait implements KeWaitForSingleObject semantics for the current
// thread, including the nil-object pure-timeout form used by Sleep. It
// reports whether the poll satisfied the wait inline.
func (k *Kernel) beginWait(t *Thread, req *request) bool {
	if req.obj != nil && req.obj.poll(t) {
		t.result = waitResult{status: WaitSuccess}
		return true
	}
	if req.obj == nil && req.timeout == 0 {
		// Sleep(0): a pure yield.
		t.result = waitResult{status: WaitTimedOut}
		t.needsResume = true
		t.state = threadReady
		t.readiedAt = k.now()
		k.pushReadyBack(t)
		k.current = nil
		return false
	}
	t.state = threadWaiting
	t.waitObj = req.obj
	if req.obj != nil {
		req.obj.addWaiter(t)
	}
	if req.timeout >= 0 {
		t.waitTimeoutEv = k.eng.After(req.timeout, t.onWaitTimeoutFn)
	}
	k.current = nil
	return false
}

// beginWaitAny implements KeWaitForMultipleObjects (WaitAny) for the
// current thread: satisfy inline from the first signaled object, or
// register on all of them. It reports whether the wait was satisfied
// inline.
func (k *Kernel) beginWaitAny(t *Thread, req *request) bool {
	for i, o := range req.objs {
		if o.poll(t) {
			t.result = waitResult{status: WaitSuccess, index: i}
			return true
		}
	}
	t.state = threadWaiting
	t.waitAny = req.objs
	for _, o := range req.objs {
		o.addWaiter(t)
	}
	if req.timeout >= 0 {
		t.waitTimeoutEv = k.eng.After(req.timeout, t.onWaitTimeoutFn)
	}
	k.current = nil
	return false
}

// onWaitTimeout expires a timed wait.
func (k *Kernel) onWaitTimeout(t *Thread) {
	t.waitTimeoutEv = nil
	if t.state != threadWaiting {
		return // raced with a wake
	}
	if t.waitObj != nil {
		t.waitObj.removeWaiter(t)
		t.waitObj = nil
	}
	if t.waitAny != nil {
		for _, o := range t.waitAny {
			o.removeWaiter(t)
		}
		t.waitAny = nil
	}
	t.state = threadReady
	t.readiedAt = k.now()
	t.result = waitResult{status: WaitTimedOut}
	t.needsResume = true
	k.pushReadyBack(t)
	if k.probe.ThreadReadied != nil {
		k.probe.ThreadReadied(t, t.readiedAt)
	}
	k.maybeRun()
}

// Shutdown ends every live thread. A step thread holds nothing to
// release; the goroutine of each CreateThread body is unwound. The
// simulation must not be advanced afterwards. It is safe to call multiple
// times.
func (k *Kernel) Shutdown() {
	for _, t := range k.threads {
		if t.terminated {
			continue
		}
		t.terminated = true
		if b := t.tc.body; b != nil {
			b.kill()
		}
	}
}
