// Package latdriver implements the paper's latency measurement tools
// (§2.2) as WDM drivers against the simulated kernel:
//
//   - the portable DPC-interrupt + thread latency driver (Figure 3): the
//     driver I/O read routine reads the TSC and sets a timer; the timer DPC
//     reads the TSC and signals the measurement threads; each thread reads
//     the TSC on wakeup; the control application computes the latencies and
//     immediately re-issues the read;
//   - the Windows 9x-only raw interrupt-latency extension, which installs
//     its own handler on the PIT vector ("on Windows 98 it is possible,
//     using legacy interfaces, to supply our own timer ISR, whereas on
//     Windows NT this would require source code access") and splits the
//     measurement into interrupt latency and DPC latency.
//
// Latencies are estimated exactly as in the paper: the hardware-interrupt
// instant is taken to be "I/O-read TSC + programmed delay", giving +/- one
// PIT period of resolution (§2.2). Ground-truth ("oracle") histograms
// computed from the simulator's exact tick times are kept alongside so the
// estimation error itself is testable.
package latdriver

import (
	"fmt"

	"wdmlat/internal/cpu"
	"wdmlat/internal/hw"
	"wdmlat/internal/kernel"
	"wdmlat/internal/sim"
	"wdmlat/internal/stats"
	"wdmlat/internal/wdm"
)

// Options configures the measurement tool.
type Options struct {
	// DelayTicks is the ARBITRARY_DELAY of the pseudocode, in PIT ticks.
	// Default 3 (3 ms at the tool's 1 kHz PIT programming).
	DelayTicks int
	// HighPriority and MediumPriority are the two measurement thread
	// priorities; defaults are the paper's 28 and 24. The medium thread
	// completes the IRP back to the control application.
	HighPriority, MediumPriority int
	// HookTimerISR installs the Windows 9x-only raw-interrupt hook. The
	// Lab only enables it on personalities that support legacy vector
	// patching.
	HookTimerISR bool
	// ReadCost, DpcCost and ThreadCost model the tool's own instruction
	// footprint (TSC reads, bookkeeping). Defaults are a few hundred
	// cycles — the tool is deliberately "extremely low cost, non-invasive"
	// (§1).
	ReadCost, DpcCost, ThreadCost sim.Cycles
	// OnThreadLatency, if set, observes every thread-latency sample as it
	// is recorded. The cause tool (§2.3) uses it as its episode trigger.
	OnThreadLatency func(priority int, lat sim.Cycles)
}

func (o *Options) fillDefaults() {
	if o.DelayTicks == 0 {
		o.DelayTicks = 3
	}
	if o.HighPriority == 0 {
		o.HighPriority = kernel.RealtimeHigh
	}
	if o.MediumPriority == 0 {
		o.MediumPriority = kernel.RealtimeDefault
	}
	if o.ReadCost == 0 {
		o.ReadCost = 150
	}
	if o.DpcCost == 0 {
		o.DpcCost = 200
	}
	if o.ThreadCost == 0 {
		o.ThreadCost = 150
	}
}

// Tool is an installed measurement driver pair plus its collected
// distributions.
type Tool struct {
	k    *kernel.Kernel
	pit  *hw.PIT
	drv  *wdm.Driver
	opts Options

	gTimer *kernel.Timer
	gDpc   *kernel.DPC
	events map[int]*kernel.Event // per measurement-thread priority

	// Per-cycle state (one measurement in flight at a time).
	armed    bool
	due      sim.Time // estimated hardware-interrupt instant: ASB[0]+delay
	dpcTsc   sim.Time
	isrTsc   sim.Time
	isrValid bool
	inflight *kernel.IRP

	running bool
	unhook  func()

	// Measurement-loop callbacks, hoisted to fields so the per-cycle
	// issueRead path allocates nothing (both close over t alone, and the
	// loop runs once per sample).
	onComplete func(*kernel.IRP, sim.Time)
	rearm      func(sim.Time)

	// Results.
	hDpcInt       *stats.Histogram // estimated, the paper's headline number
	hDpcIntOracle *stats.Histogram // against exact tick time
	hIntLat       *stats.Histogram // hook mode only
	hDpcLat       *stats.Histogram // hook mode only
	hThread       map[int]*stats.Histogram
	hHwToThread   map[int]*stats.Histogram // end-to-end: estimated H/W int → thread
	samples       uint64
	isrMisses     uint64
}

// Install loads the measurement driver on a machine. The PIT must already
// be programmed (the tool assumes the 1 kHz reprogramming has happened at
// machine assembly, as §2.2 describes).
func Install(k *kernel.Kernel, pit *hw.PIT, opts Options) (*Tool, error) {
	opts.fillDefaults()
	if opts.HighPriority <= opts.MediumPriority {
		return nil, fmt.Errorf("latdriver: high priority %d must exceed medium %d",
			opts.HighPriority, opts.MediumPriority)
	}
	freq := k.CPU().Freq()
	t := &Tool{
		k:             k,
		pit:           pit,
		opts:          opts,
		events:        make(map[int]*kernel.Event),
		hDpcInt:       stats.NewHistogram(freq),
		hDpcIntOracle: stats.NewHistogram(freq),
		hThread:       make(map[int]*stats.Histogram),
		hHwToThread:   make(map[int]*stats.Histogram),
	}
	if opts.HookTimerISR {
		t.hIntLat = stats.NewHistogram(freq)
		t.hDpcLat = stats.NewHistogram(freq)
	}

	drv, err := wdm.Load(k, "WDMLAT", t.driverEntry)
	if err != nil {
		return nil, err
	}
	t.drv = drv
	return t, nil
}

// driverEntry is the DriverEntry of §2.2.1: create the single-shot timer,
// the synchronization events, and the measurement threads; install the read
// dispatch; optionally patch the PIT vector.
func (t *Tool) driverEntry(drv *wdm.Driver) error {
	t.gTimer = drv.KeCreateTimer("gTimer")
	t.gDpc = kernel.NewDPC("WDMLAT", kernel.MediumImportance, t.latDpcRoutine)
	drv.MajorRead = t.latRead

	for _, p := range []int{t.opts.HighPriority, t.opts.MediumPriority} {
		t.events[p] = drv.KeCreateEvent(fmt.Sprintf("gEvent%d", p), kernel.SynchronizationEvent)
		t.hThread[p] = stats.NewHistogram(t.k.CPU().Freq())
		t.hHwToThread[p] = stats.NewHistogram(t.k.CPU().Freq())
		lt := &latThread{
			t:         t,
			priority:  p,
			ev:        t.events[p],
			completer: p == t.opts.MediumPriority,
		}
		drv.PsCreateSystemThread(fmt.Sprintf("LatThread%d", p), lt.step)
	}

	if t.opts.HookTimerISR {
		t.unhook = t.k.CPU().Hook(t.k.ClockVector(), t.timerISRHook)
	}
	return nil
}

// latRead is the driver I/O read routine (§2.2.2): record the TSC into
// ASB[0] and arm the timer; the estimated hardware-interrupt instant for
// this cycle is ASB[0] + delay.
func (t *Tool) latRead(irp *kernel.IRP) {
	tsc := t.drv.GetCycleCount()
	irp.ASB[0] = tsc
	t.due = tsc.Add(sim.Cycles(t.opts.DelayTicks) * t.k.TickPeriod())
	t.isrValid = false
	t.armed = true
	t.inflight = irp
	t.drv.KeSetTimer(t.gTimer, t.opts.DelayTicks, t.gDpc)
}

// timerISRHook is the Windows 9x legacy timer ISR (§2.2): it runs on every
// PIT interrupt ahead of the OS handler, and for the tick that satisfies
// the armed timer it records the raw interrupt latency sample.
func (t *Tool) timerISRHook(now sim.Time, chain cpu.Handler) {
	t.k.CPU().AddCharge(60) // the hook's own footprint
	tsc := t.k.CPU().TSC()
	if t.armed && !t.isrValid {
		nominal := t.pit.NominalTickTime(t.pit.Ticks())
		if nominal >= t.due || tsc >= t.due {
			t.isrTsc = tsc
			t.isrValid = true
			lat := tsc.Sub(t.due)
			if lat < 0 {
				lat = 0
			}
			t.hIntLat.Add(lat)
		}
	}
	chain(now)
}

// latDpcRoutine is the timer DPC (§2.2.3): record the TSC into ASB[1],
// then signal both measurement threads.
func (t *Tool) latDpcRoutine(c *kernel.DpcContext) {
	tsc := c.Now()
	t.dpcTsc = tsc
	if irp := t.inflight; irp != nil {
		irp.ASB[1] = tsc
	}
	t.armed = false

	// Estimated DPC-interrupt latency: ASB[1] - (ASB[0] + delay).
	est := tsc.Sub(t.due)
	if est < 0 {
		est = 0
	}
	t.hDpcInt.Add(est)

	// Oracle: against the exact hardware tick that fired the timer.
	actual := t.firingTick()
	if orc := tsc.Sub(actual); orc >= 0 {
		t.hDpcIntOracle.Add(orc)
	}

	// Hook mode: split into interrupt + DPC latency (Figure 3, Win98 row).
	if t.opts.HookTimerISR {
		if t.isrValid {
			if d := tsc.Sub(t.isrTsc); d >= 0 {
				t.hDpcLat.Add(d)
			}
		} else {
			t.isrMisses++
		}
	}

	c.Charge(t.opts.DpcCost)
	c.SetEvent(t.events[t.opts.HighPriority])
	c.SetEvent(t.events[t.opts.MediumPriority])
}

// firingTick returns the exact hardware time of the first PIT assertion at
// or after the timer's due time — the simulator's ground truth for "the
// hardware interrupt was asserted here".
func (t *Tool) firingTick() sim.Time {
	return t.pit.FirstTickAtOrAfter(t.due)
}

// latThread is one measurement thread (§2.2.4): raise to the target
// priority, then loop waiting on the event, timestamping each wakeup. The
// medium-priority thread completes the IRP, upon which the control
// application computes the cycle's results and starts the next read.
type latThread struct {
	t         *Tool
	priority  int
	ev        *kernel.Event
	completer bool

	pc  latPC
	tsc sim.Time // wakeup timestamp of the cycle in flight
}

// latPC is a latThread's program counter: the operation its next step
// makes.
type latPC int

const (
	latRaise    latPC = iota // KeSetPriorityThread
	latWait                  // KeWaitForSingleObject on the event
	latWoke                  // timestamp the wakeup, run the thread's own cost
	latComplete              // complete the IRP (medium thread only)
)

// step is LatThreadFunc as a step body (see kernel.ThreadContext).
func (lt *latThread) step(tc *kernel.ThreadContext) {
	t := lt.t
	switch lt.pc {
	case latRaise:
		lt.pc = latWait
		tc.SetPriority(lt.priority)
	case latWait:
		lt.pc = latWoke
		tc.Wait(lt.ev)
	case latWoke:
		tsc := tc.Now()
		lt.tsc = tsc
		if lat := tsc.Sub(t.dpcTsc); lat >= 0 {
			t.hThread[lt.priority].Add(lat)
			if t.opts.OnThreadLatency != nil {
				t.opts.OnThreadLatency(lt.priority, lat)
			}
		}
		// Table 3's end-to-end rows: estimated hardware interrupt → this
		// thread's first instruction after the wait.
		if lat := tsc.Sub(t.due); lat >= 0 {
			t.hHwToThread[lt.priority].Add(lat)
		}
		lt.pc = latWait
		if lt.completer {
			lt.pc = latComplete
		}
		tc.Exec(t.opts.ThreadCost)
	case latComplete:
		irp := t.inflight
		t.inflight = nil
		if irp != nil {
			lt.pc = latWait
			irp.ASB[2] = lt.tsc
			tc.CompleteIrp(irp)
			return
		}
		lt.pc = latWoke
		tc.Wait(lt.ev)
	}
}

// Start begins the measurement loop: the control application issues the
// first ReadFileEx; every completion issues the next.
func (t *Tool) Start() error {
	if t.running {
		return fmt.Errorf("latdriver: already running")
	}
	t.running = true
	return t.issueRead()
}

func (t *Tool) issueRead() error {
	if t.onComplete == nil {
		t.rearm = func(sim.Time) {
			if !t.running {
				return
			}
			if err := t.issueRead(); err != nil {
				panic(err)
			}
		}
		t.onComplete = func(irp *kernel.IRP, at sim.Time) {
			t.samples++
			if t.running {
				// The control application calculates and outputs the
				// latencies before issuing the next ReadFileEx (Figure 3,
				// "Control App: Calculate, Output Latencies"); its
				// user-mode delay varies, which smears the next cycle's
				// timer phase across the PIT period.
				delay := t.k.Engine().RNG().Cyclesn(t.k.TickPeriod())
				t.k.Engine().After(delay, t.rearm)
			}
			// The driver has dropped its inflight reference by completion
			// time and nothing reads the packet after this routine.
			t.k.FreeIRP(irp)
		}
	}
	_, err := t.drv.ReadFileEx(t.onComplete)
	return err
}

// Stop ends the measurement loop after the in-flight cycle and removes the
// legacy hook.
func (t *Tool) Stop() {
	t.running = false
	if t.unhook != nil {
		t.unhook()
		t.unhook = nil
	}
}

// Samples returns the number of completed measurement cycles.
func (t *Tool) Samples() uint64 { return t.samples }

// IsrMisses returns cycles where the legacy hook failed to attribute the
// firing tick (possible when the interrupt was delayed past the estimation
// window); their interrupt/DPC split is not recorded.
func (t *Tool) IsrMisses() uint64 { return t.isrMisses }

// DpcInterruptLatency returns the estimated DPC-interrupt latency
// distribution — the quantity plotted for both OSes in Figure 4.
func (t *Tool) DpcInterruptLatency() *stats.Histogram { return t.hDpcInt }

// DpcInterruptLatencyOracle returns the same latency measured against the
// simulator's exact tick times (no estimation error).
func (t *Tool) DpcInterruptLatencyOracle() *stats.Histogram { return t.hDpcIntOracle }

// InterruptLatency returns the raw interrupt latency distribution (legacy
// hook mode only; nil otherwise).
func (t *Tool) InterruptLatency() *stats.Histogram { return t.hIntLat }

// DpcLatency returns the ISR-to-DPC latency distribution (legacy hook mode
// only; nil otherwise).
func (t *Tool) DpcLatency() *stats.Histogram { return t.hDpcLat }

// ThreadLatency returns the thread latency distribution for one of the two
// configured measurement priorities (nil for other priorities).
func (t *Tool) ThreadLatency(priority int) *stats.Histogram { return t.hThread[priority] }

// HwToThreadLatency returns the end-to-end distribution from the estimated
// hardware interrupt to the thread's first instruction — Table 3's "H/W
// Int. to kernel RT thread" rows.
func (t *Tool) HwToThreadLatency(priority int) *stats.Histogram { return t.hHwToThread[priority] }

// HighPriority and MediumPriority report the configured thread priorities.
func (t *Tool) HighPriority() int { return t.opts.HighPriority }

// MediumPriority reports the lower measurement thread priority.
func (t *Tool) MediumPriority() int { return t.opts.MediumPriority }
