package kernel

import (
	"wdmlat/internal/sim"
)

// Timer is a KTIMER: a waitable dispatcher object that is signaled — and
// optionally queues a DPC — when it expires. Expiry is processed by the
// clock-tick ISR, so effective resolution is the programmed PIT period;
// the paper's tools raise the PIT from the 67–100 Hz default to 1 kHz to
// get millisecond timers (§2.2).
type Timer struct {
	waiterList
	Name     string
	active   bool
	due      sim.Time
	period   sim.Cycles // 0 for single-shot
	dpc      *DPC
	signaled bool
	fires    uint64
}

// NewTimer creates an inactive single-shot timer (KeInitializeTimer).
func (k *Kernel) NewTimer(name string) *Timer {
	return &Timer{waiterList: waiterList{k: k}, Name: name}
}

// Fires returns how many times the timer has expired.
func (t *Timer) Fires() uint64 { return t.fires }

func (t *Timer) poll(_ *Thread) bool {
	// NT timers default to notification semantics: signaled latches until
	// the timer is re-armed.
	return t.signaled
}

// setTimer arms (or re-arms) a single-shot timer relative to now
// (KeSetTimer). Arming clears the signaled state.
func (k *Kernel) setTimer(t *Timer, delay sim.Cycles, dpc *DPC) {
	if delay < 0 {
		panic("kernel: negative timer delay")
	}
	k.cancelTimer(t)
	t.active = true
	t.signaled = false
	t.due = k.now().Add(delay)
	t.period = 0
	t.dpc = dpc
	k.timers = append(k.timers, t)
}

// setPeriodicTimer arms a periodic timer (KeSetTimerEx; "NT 4.0 added
// periodic OS timers", paper §2.2).
func (k *Kernel) setPeriodicTimer(t *Timer, delay, period sim.Cycles, dpc *DPC) {
	if period <= 0 {
		panic("kernel: non-positive timer period")
	}
	k.setTimer(t, delay, dpc)
	t.period = period
}

// cancelTimer disarms a timer (KeCancelTimer). Returns true if it was armed.
func (k *Kernel) cancelTimer(t *Timer) bool {
	if !t.active {
		return false
	}
	t.active = false
	for i, x := range k.timers {
		if x == t {
			k.timers = append(k.timers[:i], k.timers[i+1:]...)
			break
		}
	}
	return true
}

// SetTimer arms a single-shot timer from simulation-harness context.
func (k *Kernel) SetTimer(t *Timer, delay sim.Cycles, dpc *DPC) {
	k.setTimer(t, delay, dpc)
}

// SetPeriodicTimer arms a periodic timer from simulation-harness context.
func (k *Kernel) SetPeriodicTimer(t *Timer, delay, period sim.Cycles, dpc *DPC) {
	k.setPeriodicTimer(t, delay, period, dpc)
}

// CancelTimer disarms a timer from simulation-harness context.
func (k *Kernel) CancelTimer(t *Timer) bool { return k.cancelTimer(t) }

// clockISR is the kernel's handler for the PIT interrupt: charge the tick
// bookkeeping, then fire every due timer (signal its waiters and queue its
// DPC). This is where the measurement timeline of Figure 3 begins: "PIT
// ISR: Read and save TSC, Queue DPC".
func (k *Kernel) clockISR(c *IsrContext) {
	c.Charge(k.draw(k.cfg.ClockTick))
	now := c.Now()
	// Fire due timers. The slice is filtered in place (the write index
	// never passes the read index), so the tick allocates nothing.
	keep := k.timers[:0]
	for _, t := range k.timers {
		if !t.active || t.due.After(now) {
			keep = append(keep, t)
			continue
		}
		c.Charge(k.draw(k.cfg.TimerFire))
		t.fires++
		t.signaled = true
		// Wake all waiters (notification semantics).
		for {
			w := t.popWaiter()
			if w == nil {
				break
			}
			k.wakeThreadFrom(t, w, WaitSuccess)
		}
		if t.dpc != nil {
			k.queueDpc(t.dpc)
		}
		if t.period > 0 {
			t.due = t.due.Add(t.period)
			t.signaled = false // periodic timers pulse
			keep = append(keep, t)
		} else {
			t.active = false
		}
	}
	for i := len(keep); i < len(k.timers); i++ {
		k.timers[i] = nil // drop fired single-shot refs from the backing array
	}
	k.timers = keep
}
