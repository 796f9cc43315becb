package modem

import (
	"wdmlat/internal/kernel"
	"wdmlat/internal/sim"
)

// PeriodicTask is the paper's future-work tool (§6.1): a configurable
// periodic computation at a chosen modality and priority that reports
// missed deadlines. It generalizes the datapump: each release at k·T must
// complete its compute by k·T + Deadline.
type PeriodicTask struct {
	k *kernel.Kernel

	Name     string
	Period   sim.Cycles
	Compute  sim.Cycles
	Deadline sim.Cycles // relative; defaults to Period
	Modality Modality
	Priority int // thread modality only

	// ExternallyPaced marks the task as released by an outside interrupt
	// source (the display vblank DPC, say) instead of its own kernel
	// timer: Start arms nothing and each Release call is one period
	// boundary. Set before Start.
	ExternallyPaced bool
	// OnComplete, if set, observes every completed activation with its
	// completion time and its latency from release — the hook the
	// frame-pacing application hangs its jitter distributions on. It runs
	// in the completing context (DPC or thread), so it must be cheap.
	OnComplete func(now sim.Time, latency sim.Cycles)

	timer *kernel.Timer
	dpc   *kernel.DPC
	ev    *kernel.Event

	releases    uint64
	completions uint64
	misses      uint64
	skips       uint64 // releases dropped because the previous was still running
	pending     bool
	pendingDue  sim.Time
	pendingRel  sim.Time // release time of the in-flight activation
	running     bool
	maxLateness sim.Cycles
}

// NewPeriodicTask builds (but does not start) a periodic task.
func NewPeriodicTask(k *kernel.Kernel, name string, period, compute sim.Cycles, m Modality, priority int) *PeriodicTask {
	if period <= 0 || compute < 0 {
		panic("modem: invalid periodic task parameters")
	}
	if priority == 0 {
		priority = kernel.RealtimeHigh
	}
	t := &PeriodicTask{
		k:        k,
		Name:     name,
		Period:   period,
		Compute:  compute,
		Deadline: period,
		Modality: m,
		Priority: priority,
	}
	t.timer = k.NewTimer(name + ".period")
	t.dpc = kernel.NewDPC("PERIODIC:"+name, kernel.MediumImportance, t.onRelease)
	if m == ThreadBased {
		t.ev = k.NewEvent(name+".wake", kernel.SynchronizationEvent)
		pump := &pumpThread{
			prio:    priority,
			ev:      t.ev,
			compute: &t.Compute,
			finish:  func() { t.complete(t.k.CPU().TSC()) },
		}
		k.CreateStepThread(name, kernel.NormalPriority, pump.step)
	}
	return t
}

// Start begins periodic releases. An externally-paced task arms no timer —
// its releases arrive through Release.
func (t *PeriodicTask) Start() {
	if t.running {
		panic("modem: periodic task already started")
	}
	t.running = true
	if t.ExternallyPaced {
		return
	}
	t.k.SetPeriodicTimer(t.timer, t.Period, t.Period, t.dpc)
}

// Release delivers one externally-paced period boundary, in DPC context
// (the pacing interrupt's DPC calls this — the display vblank pattern).
func (t *PeriodicTask) Release(c *kernel.DpcContext) {
	if !t.ExternallyPaced {
		panic("modem: Release on a timer-paced task")
	}
	t.onRelease(c)
}

// Stop halts releases.
func (t *PeriodicTask) Stop() {
	t.running = false
	t.k.CancelTimer(t.timer)
}

func (t *PeriodicTask) onRelease(c *kernel.DpcContext) {
	if !t.running {
		return
	}
	t.releases++
	rel := c.Now()
	due := rel.Add(t.Deadline)
	switch t.Modality {
	case DPCBased:
		if t.Compute > 0 {
			c.Charge(t.Compute)
		}
		t.pendingDue = due
		t.pendingRel = rel
		t.pending = true
		t.complete(c.Now())
	case ThreadBased:
		if t.pending {
			// Previous release still in flight: this release is skipped
			// and counts as a miss (its buffer was never produced).
			t.skips++
			t.misses++
			return
		}
		t.pending = true
		t.pendingDue = due
		t.pendingRel = rel
		c.SetEvent(t.ev)
	}
}

func (t *PeriodicTask) complete(now sim.Time) {
	if !t.pending {
		return
	}
	t.pending = false
	t.completions++
	if now.After(t.pendingDue) {
		t.misses++
		if late := now.Sub(t.pendingDue); late > t.maxLateness {
			t.maxLateness = late
		}
	}
	if t.OnComplete != nil {
		t.OnComplete(now, now.Sub(t.pendingRel))
	}
}

// Releases, Completions, Misses and Skips report progress counters.
func (t *PeriodicTask) Releases() uint64 { return t.releases }

// Completions returns the number of finished activations.
func (t *PeriodicTask) Completions() uint64 { return t.completions }

// Misses returns deadline misses (including skipped releases).
func (t *PeriodicTask) Misses() uint64 { return t.misses }

// Skips returns releases dropped because the previous was still running.
func (t *PeriodicTask) Skips() uint64 { return t.skips }

// MaxLateness returns the worst observed completion lateness.
func (t *PeriodicTask) MaxLateness() sim.Cycles { return t.maxLateness }

// MissRate returns misses per release.
func (t *PeriodicTask) MissRate() float64 {
	if t.releases == 0 {
		return 0
	}
	return float64(t.misses) / float64(t.releases)
}
