package kernel

import "wdmlat/internal/sim"

// WaitStatus is the outcome of a wait (KeWaitForSingleObject).
type WaitStatus int

// Wait outcomes.
const (
	WaitSuccess WaitStatus = iota
	WaitTimedOut
	WaitKilled // the simulation shut down while the thread was waiting
)

// String implements fmt.Stringer.
func (s WaitStatus) String() string {
	switch s {
	case WaitSuccess:
		return "STATUS_SUCCESS"
	case WaitTimedOut:
		return "STATUS_TIMEOUT"
	case WaitKilled:
		return "STATUS_KILLED"
	default:
		return "STATUS(?)"
	}
}

// Waitable is a dispatcher object a thread can block on.
type Waitable interface {
	// poll attempts to satisfy a wait immediately, consuming the signal
	// state if appropriate. It returns true on success.
	poll(t *Thread) bool
	// addWaiter and removeWaiter maintain the FIFO waiter list.
	addWaiter(t *Thread)
	removeWaiter(t *Thread)
	kernel() *Kernel
}

// waiterList is the shared FIFO waiter bookkeeping.
type waiterList struct {
	k       *Kernel
	waiters sim.Queue[*Thread]
}

func (w *waiterList) addWaiter(t *Thread) { w.waiters.PushBack(t) }

func (w *waiterList) removeWaiter(t *Thread) {
	for i := 0; i < w.waiters.Len(); i++ {
		if w.waiters.At(i) == t {
			w.waiters.RemoveAt(i)
			return
		}
	}
}

func (w *waiterList) kernel() *Kernel { return w.k }

// popWaiter dequeues the longest-waiting thread, or nil.
func (w *waiterList) popWaiter() *Thread {
	if w.waiters.Len() == 0 {
		return nil
	}
	return w.waiters.PopFront()
}

// EventKind selects WDM event semantics.
type EventKind int

const (
	// SynchronizationEvent auto-clears after satisfying a single wait —
	// the kind the paper's measurement driver uses (§2.2: "an event that
	// autoclears after a single wait is satisfied").
	SynchronizationEvent EventKind = iota
	// NotificationEvent satisfies all outstanding waits and stays
	// signaled until reset, like Unix kernel events (paper §2.2).
	NotificationEvent
)

// Event is a KEVENT.
type Event struct {
	waiterList
	Name     string
	Kind     EventKind
	signaled bool
}

// NewEvent creates an event in the non-signaled state (KeInitializeEvent).
func (k *Kernel) NewEvent(name string, kind EventKind) *Event {
	return &Event{waiterList: waiterList{k: k}, Name: name, Kind: kind}
}

// Signaled reports the event's current signal state.
func (e *Event) Signaled() bool { return e.signaled }

func (e *Event) poll(t *Thread) bool {
	if !e.signaled {
		return false
	}
	if e.Kind == SynchronizationEvent {
		e.signaled = false
	}
	return true
}

// set is KeSetEvent: synchronization events wake exactly one waiter and
// stay unsignaled if one was woken; notification events wake everyone and
// latch.
func (e *Event) set() {
	switch e.Kind {
	case SynchronizationEvent:
		if t := e.popWaiter(); t != nil {
			e.k.wakeThreadFrom(e, t, WaitSuccess)
			return
		}
		e.signaled = true
	case NotificationEvent:
		e.signaled = true
		for {
			t := e.popWaiter()
			if t == nil {
				break
			}
			e.k.wakeThreadFrom(e, t, WaitSuccess)
		}
	}
}

// reset is KeResetEvent.
func (e *Event) reset() { e.signaled = false }

// SetEvent signals ev from simulation-harness context. Driver code running
// inside the machine should use the ISR/DPC/thread contexts instead.
func (k *Kernel) SetEvent(ev *Event) {
	ev.set()
	k.maybeRun()
}

// ResetEvent clears ev from simulation-harness context.
func (k *Kernel) ResetEvent(ev *Event) { ev.reset() }

// Semaphore is a KSEMAPHORE: a counted dispatcher object.
type Semaphore struct {
	waiterList
	Name  string
	count int
	limit int
}

// NewSemaphore creates a semaphore with an initial count and a limit.
func (k *Kernel) NewSemaphore(initial, limit int) *Semaphore {
	if initial < 0 || limit <= 0 || initial > limit {
		panic("kernel: invalid semaphore counts")
	}
	return &Semaphore{waiterList: waiterList{k: k}, count: initial, limit: limit}
}

// Count returns the current count.
func (s *Semaphore) Count() int { return s.count }

func (s *Semaphore) poll(t *Thread) bool {
	if s.count <= 0 {
		return false
	}
	s.count--
	return true
}

// release is KeReleaseSemaphore: add n units, waking waiters while units
// remain.
func (s *Semaphore) release(n int) {
	if n <= 0 {
		panic("kernel: semaphore release of non-positive count")
	}
	s.count += n
	if s.count > s.limit {
		s.count = s.limit
	}
	for s.count > 0 {
		t := s.popWaiter()
		if t == nil {
			break
		}
		s.count--
		s.k.wakeThreadFrom(s, t, WaitSuccess)
	}
}

// ReleaseSemaphore releases from simulation-harness context.
func (k *Kernel) ReleaseSemaphore(s *Semaphore, n int) {
	s.release(n)
	k.maybeRun()
}

// Mutex is a KMUTEX with recursive acquisition by the owning thread.
type Mutex struct {
	waiterList
	Name      string
	owner     *Thread
	recursion int
}

// NewMutex creates an unowned mutex.
func (k *Kernel) NewMutex(name string) *Mutex {
	return &Mutex{waiterList: waiterList{k: k}, Name: name}
}

// Owner returns the owning thread, or nil.
func (m *Mutex) Owner() *Thread { return m.owner }

func (m *Mutex) poll(t *Thread) bool {
	if m.owner == nil {
		m.owner = t
		m.recursion = 1
		return true
	}
	if m.owner == t {
		m.recursion++
		return true
	}
	return false
}

// release is KeReleaseMutex; only the owner may release, and the mutex
// transfers directly to the longest waiter.
func (m *Mutex) release(t *Thread) {
	if m.owner != t {
		panic("kernel: mutex released by non-owner")
	}
	m.recursion--
	if m.recursion > 0 {
		return
	}
	m.owner = nil
	if next := m.popWaiter(); next != nil {
		m.owner = next
		m.recursion = 1
		m.k.wakeThreadFrom(m, next, WaitSuccess)
	}
}

// wakeThreadFrom transitions a waiting thread to ready, recording the
// ground-truth "readied" timestamp from which thread latency is defined
// (paper §2.1: the delay from the signal until the thread's first
// instruction after the wait). src identifies the satisfying object for
// multi-object waits, and the wait reports its first position in the set.
// src has already dequeued the registration that woke the thread; every
// other one goes, including the extra registrations of a set that names
// src more than once.
func (k *Kernel) wakeThreadFrom(src Waitable, t *Thread, status WaitStatus) {
	if t.state != threadWaiting {
		panic("kernel: waking thread " + t.Name + " in state " + t.state.String())
	}
	if t.waitTimeoutEv != nil {
		k.eng.Cancel(t.waitTimeoutEv)
		t.waitTimeoutEv = nil
	}
	t.waitObj = nil
	idx, found := 0, false
	if t.waitAny != nil {
		for i, o := range t.waitAny {
			if o == src && !found {
				idx, found = i, true
				continue
			}
			o.removeWaiter(t)
		}
		t.waitAny = nil
	}
	t.result = waitResult{status: status, index: idx}
	t.needsResume = true
	t.state = threadReady
	t.readiedAt = k.now()
	// Dynamic-class boost on a satisfied wait (never in the real-time
	// band, whose priorities are contractual).
	if k.cfg.PriorityBoost && status == WaitSuccess && t.base < MinRealtimePriority {
		boosted := t.base + 2
		if boosted >= MinRealtimePriority {
			boosted = MinRealtimePriority - 1
		}
		if boosted > t.priority {
			t.priority = boosted
		}
	}
	k.pushReadyBack(t)
	if k.probe.ThreadReadied != nil {
		k.probe.ThreadReadied(t, t.readiedAt)
	}
}
