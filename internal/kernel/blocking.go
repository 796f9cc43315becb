package kernel

import "fmt"

// CreateThread creates and readies a kernel thread whose body is written
// in blocking style: fn runs once, from the thread's first dispatch, and
// every ThreadContext method returns when its operation has completed.
//
// It is an adapter over the step path (CreateStepThread). fn runs on a
// goroutine of its own, and the thread's step function hands control to
// that goroutine and parks the kernel goroutine until the body makes its
// next operation, so each resumption costs a goroutine handoff each way.
// Simulated machines use step bodies; the adapter serves tests, whose
// bodies read best as straight-line code, and it is the reference the step
// path is checked against.
func (k *Kernel) CreateThread(name string, priority int, fn func(tc *ThreadContext)) *Thread {
	if fn == nil {
		panic("kernel: nil thread body")
	}
	b := &blockingBody{
		resume: make(chan bool),
		yield:  make(chan any),
		dead:   make(chan struct{}),
	}
	t := k.newThread(name, priority, b.step)
	t.tc.body = b
	go b.run(&t.tc, fn)
	k.startThread(t)
	return t
}

// errKilled is the panic value used to unwind a body goroutine at
// shutdown.
var errKilled = fmt.Errorf("kernel: thread killed at shutdown")

// blockingBody is the goroutine adapter of one CreateThread body. The
// kernel and body goroutines hand control back and forth over unbuffered
// channels, so exactly one of them runs at a time and the body has the
// same exclusive access to kernel state a step body has.
type blockingBody struct {
	// resume hands control to the body; true asks it to unwind instead
	// (Shutdown).
	resume chan bool
	// yield hands control back: nil once the body has recorded its next
	// operation in tc.req (none if it returned), or the value of a panic
	// raised in the body or in a kernel call it ran inline.
	yield chan any
	dead  chan struct{}
}

// step is the thread's step function: run the body up to its next
// operation. A panic on the body goroutine is re-raised here, so bug
// checks unwind the engine (the simulated BSOD) and reach the caller of
// eng.Step, not the offending goroutine.
func (b *blockingBody) step(*ThreadContext) {
	b.resume <- false
	if pv := <-b.yield; pv != nil {
		panic(pv)
	}
}

// run is the body goroutine.
func (b *blockingBody) run(tc *ThreadContext, fn func(tc *ThreadContext)) {
	defer close(b.dead)
	defer func() {
		pv := recover()
		if pv == nil || pv == errKilled {
			return
		}
		b.yield <- pv
		<-b.resume // parked like any bug-checked thread until Shutdown
	}()
	if <-b.resume {
		return
	}
	fn(tc)
	b.yield <- nil // returned without an operation: the thread ends
}

// do makes one operation from the body goroutine. Operations that complete
// inline (the same ones serveOne completes inline for a step body) run
// right here, with the kernel goroutine parked in step; the rest are
// recorded in tc.req for serveOne and the body parks until the kernel
// resumes it.
func (b *blockingBody) do(tc *ThreadContext, r request) waitResult {
	t := tc.t
	switch r.kind {
	case reqExec:
		if r.cycles == 0 {
			return waitResult{}
		}
	case reqWait:
		if r.obj != nil && r.obj.poll(t) {
			return waitResult{status: WaitSuccess}
		}
	case reqWaitAny:
		for i, o := range r.objs {
			if o.poll(t) { // same first-signaled-wins order as beginWaitAny
				return waitResult{status: WaitSuccess, index: i}
			}
		}
	}
	tc.req = r
	b.yield <- nil
	if <-b.resume {
		panic(errKilled)
	}
	return t.result
}

// call runs a kernel call from the body goroutine, yielding to the
// dispatch loop only if mustYield says the call made work runnable above
// the thread.
func (b *blockingBody) call(tc *ThreadContext, fn func()) {
	fn()
	if tc.k.mustYield(tc.t) {
		b.do(tc, request{kind: reqYield})
	}
}

// kill unwinds the body goroutine and waits for it to end.
func (b *blockingBody) kill() {
	b.resume <- true
	<-b.dead
}
