// Package modem models the paper's motivating hard real-time driver: a
// host-based soft modem datapump (§1.3, §5.1). The datapump is the modem's
// physical-interface layer; it "executes periodically with a cycle time of
// between 4 and 16 milliseconds and takes somewhat less than 25% of a cycle
// on a 300 MHz Pentium II". Under WDM it is implemented either as a DPC
// (interrupt processing) or as a real-time kernel thread, and its quality
// of service is the mean time between buffer underruns (Figures 6–7).
//
// The package also implements the configurable periodic-computation tool
// the paper describes as future work (§6.1): "a tool that models periodic
// computation at configurable modalities (e.g., threads, DPCs) and
// priorities within modalities, and reports the number of deadlines that
// have been missed".
package modem

import (
	"fmt"

	"wdmlat/internal/kernel"
	"wdmlat/internal/sim"
)

// Modality selects how the periodic computation is scheduled — the paper's
// central dichotomy.
type Modality int

// The two WDM processing modalities (§1, §5.1).
const (
	DPCBased Modality = iota
	ThreadBased
)

// String implements fmt.Stringer.
func (m Modality) String() string {
	switch m {
	case DPCBased:
		return "DPC-based"
	case ThreadBased:
		return "thread-based"
	default:
		return "Modality(?)"
	}
}

// Config describes a datapump.
type Config struct {
	// CycleMS is the buffer time t in milliseconds (4–16 for modems,
	// Table 1).
	CycleMS float64
	// Buffers is n; latency tolerance is (n-1)*t (§1).
	Buffers int
	// ComputeFraction is the fraction of each cycle spent computing
	// (default 0.25, the paper's conservative estimate for data transfer
	// mode on a 300 MHz Pentium II).
	ComputeFraction float64
	// Modality selects DPC or thread processing.
	Modality Modality
	// ThreadPriority applies to ThreadBased (default real-time high 28 —
	// §5.1 analyzes "high-priority, real-time kernel mode threads").
	ThreadPriority int
	// Vector and Irql place the modem codec's interrupt (defaults 37 and
	// DIRQL 15).
	Vector int
	Irql   kernel.IRQL
}

func (c *Config) fillDefaults() {
	if c.CycleMS <= 0 {
		c.CycleMS = 8
	}
	if c.Buffers <= 0 {
		c.Buffers = 2
	}
	if c.ComputeFraction <= 0 {
		c.ComputeFraction = 0.25
	}
	if c.ThreadPriority == 0 {
		c.ThreadPriority = kernel.RealtimeHigh
	}
	if c.Vector == 0 {
		c.Vector = 37
	}
	if c.Irql == 0 {
		c.Irql = 15
	}
}

// ToleranceMS returns the latency tolerance (n-1)*t of the configuration.
func (c Config) ToleranceMS() float64 { return float64(c.Buffers-1) * c.CycleMS }

// Datapump is an attached, startable datapump driver. The codec hardware
// is line-paced: it consumes one buffer per cycle on its own clock (DMA
// from a ring) and asserts its interrupt; the datapump computation — in the
// ISR's DPC or in a kernel thread it signals — must produce the next buffer
// before the ring drains.
type Datapump struct {
	k   *kernel.Kernel
	cfg Config

	intr    *kernel.Interrupt
	dpc     *kernel.DPC
	ev      *kernel.Event
	compute sim.Cycles
	period  sim.Cycles

	queue     int // produced buffers ready for the line (0..Buffers)
	cycles    uint64
	underruns uint64
	started   sim.Time
	running   bool
	pace      *sim.Event
	paceFn    func(sim.Time) // line-pace callback, allocated once
}

// Attach creates a datapump on a machine's kernel. Start begins the line.
func Attach(k *kernel.Kernel, cfg Config) *Datapump {
	cfg.fillDefaults()
	freq := k.CPU().Freq()
	d := &Datapump{
		k:       k,
		cfg:     cfg,
		period:  freq.FromMillis(cfg.CycleMS),
		compute: sim.Cycles(float64(freq.FromMillis(cfg.CycleMS)) * cfg.ComputeFraction),
	}
	d.paceFn = func(sim.Time) {
		// Event records are pooled: drop the handle before anything else so
		// Stop cannot cancel a recycled record.
		d.pace = nil
		if !d.running {
			return
		}
		d.cycles++
		if d.queue > 0 {
			d.queue--
		} else {
			// Buffer underrun: the hardware transmits a dummy buffer
			// (footnote 6: indistinguishable from line noise to the peer).
			d.underruns++
		}
		d.armPace()
		d.intr.Assert()
	}
	d.dpc = kernel.NewDPC("SOFTMDM", kernel.MediumImportance, d.pumpDpc)
	d.intr = k.Connect(cfg.Vector, cfg.Irql, "SOFTMDM", "_CodecISR", func(c *kernel.IsrContext) {
		c.Charge(1500) // ~5 µs: WDM ISRs are supposed to be very short
		c.QueueDpc(d.dpc)
	})
	if cfg.Modality == ThreadBased {
		d.ev = k.NewEvent("softmodem.wake", kernel.SynchronizationEvent)
		pump := &pumpThread{prio: cfg.ThreadPriority, ev: d.ev, compute: &d.compute, finish: d.produce}
		k.CreateStepThread("SoftModemPump", kernel.NormalPriority, pump.step)
	}
	return d
}

// Config returns the datapump configuration.
func (d *Datapump) Config() Config { return d.cfg }

// Start opens the line: the codec consumes one buffer per cycle from a
// queue that starts full, asserting its interrupt each time.
func (d *Datapump) Start() {
	if d.running {
		panic("modem: datapump already started")
	}
	d.running = true
	d.queue = d.cfg.Buffers
	d.started = d.k.Engine().Now()
	d.armPace()
}

// armPace schedules the next hardware cycle. This is pure hardware: it is
// not delayed by anything the OS does.
func (d *Datapump) armPace() {
	d.pace = d.k.Engine().After(d.period, d.paceFn)
}

// Stop closes the line.
func (d *Datapump) Stop() {
	d.running = false
	if d.pace != nil {
		d.k.Engine().Cancel(d.pace)
		d.pace = nil
	}
}

// pumpDpc is the datapump's deferred processing: compute in the DPC itself
// (multi-millisecond "interrupt context" computation, §1.3) or wake the
// pump thread.
func (d *Datapump) pumpDpc(c *kernel.DpcContext) {
	if !d.running {
		return
	}
	switch d.cfg.Modality {
	case DPCBased:
		c.Charge(d.compute)
		d.produce()
	case ThreadBased:
		c.SetEvent(d.ev)
	}
}

// pumpThread is the thread modality's body, shared by the datapump and the
// periodic task as a step body (see kernel.ThreadContext): raise to the
// configured priority, then per release wait for the wake event, run the
// compute, and finish the activation in kernel context.
type pumpThread struct {
	prio    int
	ev      *kernel.Event
	compute *sim.Cycles // read at each release
	finish  func()
	pc      pumpPC
}

// pumpPC is a pumpThread's program counter: the operation its next step
// makes.
type pumpPC int

const (
	pumpRaise pumpPC = iota
	pumpWait
	pumpCompute
	pumpFinish
)

func (p *pumpThread) step(tc *kernel.ThreadContext) {
	switch p.pc {
	case pumpRaise:
		p.pc = pumpWait
		tc.SetPriority(p.prio)
	case pumpWait:
		p.pc = pumpCompute
		tc.Wait(p.ev)
	case pumpCompute:
		p.pc = pumpFinish
		tc.Exec(*p.compute) // Exec(0) completes inline
	case pumpFinish:
		p.pc = pumpWait
		tc.Do(p.finish)
	}
}

// produce adds a completed buffer if there is room.
func (d *Datapump) produce() {
	if d.queue < d.cfg.Buffers {
		d.queue++
	}
}

// Cycles returns the number of elapsed hardware cycles.
func (d *Datapump) Cycles() uint64 { return d.cycles }

// Underruns returns the number of missed buffers.
func (d *Datapump) Underruns() uint64 { return d.underruns }

// MTTFSeconds returns the observed mean time to buffer underrun in virtual
// seconds; +Inf (as math.Inf) is represented by ok=false when no underrun
// occurred.
func (d *Datapump) MTTFSeconds() (float64, bool) {
	if d.underruns == 0 {
		return 0, false
	}
	elapsed := d.k.Engine().Now().Sub(d.started)
	sec := d.k.CPU().Freq().Duration(elapsed).Seconds()
	return sec / float64(d.underruns), true
}

// String describes the datapump.
func (d *Datapump) String() string {
	return fmt.Sprintf("softmodem %v t=%.0fms n=%d (tolerance %.0f ms)",
		d.cfg.Modality, d.cfg.CycleMS, d.cfg.Buffers, d.cfg.ToleranceMS())
}
