package kernel

import (
	"fmt"

	"wdmlat/internal/cpu"
	"wdmlat/internal/sim"
)

// Config parameterizes the mechanical costs of the kernel. The two OS
// personalities (ospersona package) supply different values; the mechanics
// themselves are shared, mirroring the fact that WDM is a common driver
// model with two very different implementations underneath (paper §1, §6).
type Config struct {
	// Name identifies the OS build, e.g. "Windows NT 4.0 SP3".
	Name string

	// IsrEntry is the cost from interrupt acceptance to the first
	// instruction of the ISR (vectoring, register save, IRQL raise).
	IsrEntry sim.Dist
	// IsrExit is the cost from ISR return to resuming the preempted work.
	IsrExit sim.Dist
	// DpcDispatch is the per-DPC dequeue-and-call overhead.
	DpcDispatch sim.Dist
	// ClockTick is the base cost of the clock ISR body, excluding expired
	// timer processing.
	ClockTick sim.Dist
	// TimerFire is the per-expired-timer processing cost inside the clock
	// ISR.
	TimerFire sim.Dist
	// ContextSwitch is the thread context switch cost including the cache
	// refill effects that lmbench-style microbenchmarks exclude (the paper
	// §1.2 criticizes exactly that exclusion, so we keep them in).
	ContextSwitch sim.Dist
	// Quantum is the round-robin timeslice shared by all threads.
	Quantum sim.Cycles
	// WorkerPriority is the priority of the kernel work-item worker thread.
	// WDM services the work-item queue with a real-time *default* priority
	// thread (paper §4.2); the NT RT-24 vs RT-28 latency gap follows from
	// this value, which makes it a prime ablation knob.
	WorkerPriority int
	// PriorityBoost enables dynamic-class priority boosting: threads in
	// the normal band (priority < 16) get a temporary bump when a wait is
	// satisfied, decaying one level per expired quantum back to the base.
	// Both Windows schedulers boost; real-time priorities (16-31) are
	// never boosted or decayed.
	PriorityBoost bool
}

func (c *Config) fillDefaults() {
	def := func(d *sim.Dist, v sim.Dist) {
		if *d == nil {
			*d = v
		}
	}
	// Defaults approximate a generic late-90s x86 kernel at 300 MHz
	// (~3.3 ns/cycle): entry/exit ~2 µs, DPC dispatch ~1.5 µs, context
	// switch ~15 µs with cache effects.
	def(&c.IsrEntry, sim.Uniform{Lo: 400, Hi: 800})
	def(&c.IsrExit, sim.Uniform{Lo: 200, Hi: 500})
	def(&c.DpcDispatch, sim.Uniform{Lo: 300, Hi: 600})
	def(&c.ClockTick, sim.Uniform{Lo: 900, Hi: 2100})
	def(&c.TimerFire, sim.Uniform{Lo: 300, Hi: 900})
	def(&c.ContextSwitch, sim.Uniform{Lo: 3000, Hi: 6000})
	if c.Quantum <= 0 {
		c.Quantum = 6_000_000 // 20 ms at 300 MHz
	}
	if c.WorkerPriority == 0 {
		c.WorkerPriority = RealtimeDefault
	}
	if c.Name == "" {
		c.Name = "generic WDM kernel"
	}
}

// Counters aggregates CPU-occupancy accounting for utilization and the
// throughput experiment (§4.2).
type Counters struct {
	ISRCycles     sim.Cycles
	DPCCycles     sim.Cycles
	EpisodeCycles sim.Cycles
	SwitchCycles  sim.Cycles
	ThreadCycles  sim.Cycles
	Interrupts    uint64
	DPCs          uint64
	Switches      uint64
	Episodes      uint64
	// MaxLockEpisode / MaxMaskEpisode record the longest injected overhead
	// windows, for calibration diagnostics.
	MaxLockEpisode sim.Cycles
	MaxMaskEpisode sim.Cycles
	// NMIs delivered and dropped (a drop means one arrived while another
	// was being serviced).
	NMIs        uint64
	NMIsDropped uint64
}

// Busy returns the total accounted busy cycles.
func (c Counters) Busy() sim.Cycles {
	return c.ISRCycles + c.DPCCycles + c.EpisodeCycles + c.SwitchCycles + c.ThreadCycles
}

// Hooks are optional ground-truth instrumentation callbacks. The paper's
// tools only see TSC reads; tests use Hooks to verify that what the tools
// report matches what actually happened inside the kernel.
type Hooks struct {
	InterruptAsserted func(vector int, at sim.Time)
	IsrEntered        func(vector int, asserted, entered sim.Time)
	DpcQueued         func(d *DPC, at sim.Time)
	DpcStarted        func(d *DPC, queuedAt, started sim.Time)
	ThreadReadied     func(t *Thread, at sim.Time)
	ThreadDispatched  func(t *Thread, readiedAt, at sim.Time)
}

// Kernel is one simulated machine's operating system instance.
type Kernel struct {
	eng *sim.Engine
	cpu *cpu.CPU
	cfg Config
	rng *sim.RNG

	// CPU occupancy above thread level.
	stack   []*activity
	maskQ   sim.Queue[pendingEpisode] // pending MaskInterrupts episodes
	lockQ   sim.Queue[pendingEpisode] // pending LockScheduler episodes
	actFree []*activity               // recycled activity records
	irpFree []*IRP                    // recycled request packets (FreeIRP)

	// Interrupt state. irqList mirrors the map for iteration (Go map walks
	// cost an iterator setup per call, and the dispatch loop polls every
	// pass); irqPending counts asserted lines so the common nothing-pending
	// poll is one compare.
	interrupts map[int]*Interrupt
	irqList    []*Interrupt
	irqPending int

	// DPC queue (FIFO; High importance inserts at front).
	dpcQ sim.Queue[*DPC]

	// Timers, ordered by due time (small n; linear scan at each tick).
	timers     []*Timer
	tickPeriod sim.Cycles
	clockVec   int

	// Scheduler state. readyMask mirrors the ready queues (bit p set iff
	// ready[p] is non-empty) so the highest ready priority is one bit scan.
	ready      [NumPriorities]sim.Queue[*Thread]
	readyMask  uint32
	current    *Thread
	threads    []*Thread
	inDispatch bool

	// Work-item queue (§4.2: serviced by an RT default priority thread).
	workQ      sim.Queue[WorkItem]
	workSem    *Semaphore
	worker     *Thread
	workerWoke bool // workerStep's program counter

	nmiHandler func(now sim.Time)

	probe    Hooks
	counters Counters
}

// New constructs a kernel on the given engine and CPU. Boot must be called
// before the simulation runs.
func New(eng *sim.Engine, c *cpu.CPU, cfg Config) *Kernel {
	cfg.fillDefaults()
	k := &Kernel{
		eng:        eng,
		cpu:        c,
		cfg:        cfg,
		rng:        eng.RNG().Split(),
		interrupts: make(map[int]*Interrupt),
	}
	return k
}

// Engine returns the simulation engine.
func (k *Kernel) Engine() *sim.Engine { return k.eng }

// CPU returns the virtual processor.
func (k *Kernel) CPU() *cpu.CPU { return k.cpu }

// Config returns the kernel's cost configuration.
func (k *Kernel) Config() Config { return k.cfg }

// Counters returns a snapshot of the occupancy counters.
func (k *Kernel) Counters() Counters { return k.counters }

// SetHooks installs ground-truth instrumentation.
func (k *Kernel) SetHooks(h Hooks) { k.probe = h }

// Name returns the OS build name.
func (k *Kernel) Name() string { return k.cfg.Name }

func (k *Kernel) draw(d sim.Dist) sim.Cycles { return d.Draw(k.rng) }

// now returns the current engine time (not including body charge).
func (k *Kernel) now() sim.Time { return k.eng.Now() }

// Frames appends to dst the frame of each activity occupying the CPU above
// thread level, outermost first (a DPC before the ISR that preempted it),
// and returns the extended slice. It is what the cause tool samples (paper
// §2.3, §6.1); a running thread or an idle CPU adds none.
func (k *Kernel) Frames(dst []cpu.Frame) []cpu.Frame {
	for _, act := range k.stack {
		dst = append(dst, act.frame)
	}
	return dst
}

// topLevel returns the preemption level currently occupying the CPU above
// threads, or levelThread when only threads (or idle) occupy it.
func (k *Kernel) topLevel() int {
	if n := len(k.stack); n > 0 {
		return k.stack[n-1].level
	}
	return levelThread
}

// Boot finalizes kernel construction: it claims the clock vector, installs
// the clock ISR, and starts the work-item worker thread. tickPeriod is the
// interval at which the PIT has been programmed to interrupt; the paper's
// tools reprogram it to 1 kHz (§2.2).
func (k *Kernel) Boot(clockVector int, tickPeriod sim.Cycles) {
	if tickPeriod <= 0 {
		panic("kernel: non-positive tick period")
	}
	k.tickPeriod = tickPeriod
	k.clockVec = clockVector
	k.Connect(clockVector, ClockLevel, "NTKERN", "_KeUpdateSystemTime", k.clockISR)
	k.workSem = k.NewSemaphore(0, 1<<30)
	k.worker = k.CreateStepThread("ExWorkerThread", k.cfg.WorkerPriority, k.workerStep)
}

// TickPeriod returns the programmed clock interrupt period in cycles.
func (k *Kernel) TickPeriod() sim.Cycles { return k.tickPeriod }

// ClockVector returns the IDT vector claimed by the clock interrupt. The
// Windows 98 interrupt-latency tool hooks this vector (paper §2.2, §2.3).
func (k *Kernel) ClockVector() int { return k.clockVec }

// ---------------------------------------------------------------------------
// The dispatch loop.
// ---------------------------------------------------------------------------

// maybeRun is the kernel's central dispatch loop. It is invoked after every
// state change (interrupt assertion, DPC enqueue, thread wakeup, activity
// completion, episode injection) and repeatedly admits the highest-level
// pending work until the CPU is committed to something (an activity with a
// scheduled completion, a thread execution segment) or goes idle. It is
// re-entrancy guarded: nested calls from inside the loop are no-ops.
func (k *Kernel) maybeRun() {
	if k.inDispatch {
		return
	}
	// Cleared explicitly at each exit rather than by defer: the loop runs
	// once per kernel state change, and the per-call defer is measurable
	// there. A panic escaping the loop is a simulated bug check — the
	// kernel is not used again, so a stuck flag is harmless.
	k.inDispatch = true

	for {
		top := k.topLevel()

		// 1. Deliverable hardware interrupt (highest DIRQL first)? The
		// pending-count guard keeps the common empty case call-free.
		if k.irqPending > 0 {
			if irq := k.bestDeliverableIRQ(top); irq != nil {
				k.acceptInterrupt(irq)
				continue
			}
		}
		// 2. Interrupt-masked overhead episode? Admitted only when no
		// ISR is in flight: masked windows originate in thread/DPC-
		// context code, not inside other interrupt handlers.
		if top < levelIsrBase && k.maskQ.Len() > 0 {
			k.startEpisode(k.maskQ.PopFront())
			continue
		}
		// 3. DPC drain (DPCs cannot preempt DPCs, so only when below
		// dispatch level)?
		if top < levelDispatch && k.dpcQ.Len() > 0 {
			k.startDPC()
			continue
		}
		// 4. Scheduler-locked overhead episode? Admitted only when
		// threads alone hold the CPU; anything above, a context switch
		// included, holds it off.
		if top < levelSchedLock && k.lockQ.Len() > 0 {
			k.startEpisode(k.lockQ.PopFront())
			continue
		}
		// 5. Resume the suspended top activity, if any.
		if len(k.stack) > 0 {
			k.resumeTop()
			k.inDispatch = false
			return
		}
		// 6. Threads.
		if !k.scheduleStep() {
			k.inDispatch = false
			return
		}
	}
}

// newActivity returns a recycled activity record, or a fresh one whose
// completion callback is bound to the record once for its whole lifetime.
func (k *Kernel) newActivity() *activity {
	if n := len(k.actFree); n > 0 {
		act := k.actFree[n-1]
		k.actFree[n-1] = nil
		k.actFree = k.actFree[:n-1]
		return act
	}
	act := &activity{}
	act.fire = func(now sim.Time) { k.completeActivity(act, now) }
	return act
}

// releaseActivity returns a completed record to the pool, dropping any
// per-use closure so the pool does not pin captured state alive.
func (k *Kernel) releaseActivity(act *activity) {
	act.frame = cpu.Frame{}
	act.onComplete = nil
	act.remaining = 0
	k.actFree = append(k.actFree, act)
}

// resumeTop restarts the clock of the top-of-stack activity.
func (k *Kernel) resumeTop() {
	act := k.stack[len(k.stack)-1]
	if act.done != nil {
		return // already running
	}
	act.resumedAt = k.now()
	act.done = k.eng.After(act.remaining, act.fire)
}

// occupy suspends whatever is currently using the CPU and pushes act on the
// occupancy stack. The caller must ensure act.level exceeds the current top
// level.
func (k *Kernel) occupy(act *activity) {
	now := k.now()
	if n := len(k.stack); n > 0 {
		topAct := k.stack[n-1]
		if act.level <= topAct.level {
			panic(fmt.Sprintf("kernel: %s %s!%s level %d cannot preempt %s %s!%s level %d",
				act.kind, act.frame.Module, act.frame.Function, act.level,
				topAct.kind, topAct.frame.Module, topAct.frame.Function, topAct.level))
		}
		k.suspendActivity(topAct, now)
	} else if k.current != nil && k.current.execDone != nil {
		k.suspendExec(k.current, now)
	}
	k.stack = append(k.stack, act)
}

// suspendActivity pauses a running activity, accounting its elapsed time.
func (k *Kernel) suspendActivity(act *activity, now sim.Time) {
	if act.done == nil {
		return
	}
	k.accountActivity(act.kind, now.Sub(act.resumedAt))
	act.suspend(k.eng, now)
}

// completeActivity pops the finished top-of-stack activity.
func (k *Kernel) completeActivity(act *activity, now sim.Time) {
	n := len(k.stack)
	if n == 0 || k.stack[n-1] != act {
		panic("kernel: completing activity that is not on top of stack")
	}
	k.accountActivity(act.kind, now.Sub(act.resumedAt))
	act.done = nil
	act.remaining = 0
	k.stack = k.stack[:n-1]
	if act.onComplete != nil {
		act.onComplete(now)
	}
	k.releaseActivity(act)
	k.maybeRun()
}

func (k *Kernel) accountActivity(kind activityKind, elapsed sim.Cycles) {
	if elapsed < 0 {
		elapsed = 0
	}
	switch kind {
	case actISR:
		k.counters.ISRCycles += elapsed
	case actDPC:
		k.counters.DPCCycles += elapsed
	case actEpisode:
		k.counters.EpisodeCycles += elapsed
	case actSwitch:
		k.counters.SwitchCycles += elapsed
	}
}
