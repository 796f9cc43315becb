package ospersona

import (
	"fmt"

	"wdmlat/internal/cpu"
	"wdmlat/internal/hw"
	"wdmlat/internal/kernel"
	"wdmlat/internal/sim"
	"wdmlat/internal/stats"
)

// Interrupt vectors of the simulated board.
const (
	VectorClock   = 32
	VectorDisk    = 34
	VectorNIC     = 35
	VectorSound   = 36
	VectorDisplay = 38 // 37 is the soft modem's, claimed in internal/modem
)

// Options configures machine assembly.
type Options struct {
	// Seed drives all stochastic behaviour; same seed, same run.
	Seed uint64
	// CPUFreq defaults to the 300 MHz Pentium II of Table 2.
	CPUFreq sim.Freq
	// PITPeriod defaults to 1 ms (the tools' 1 kHz reprogramming, §2.2).
	PITPeriod sim.Cycles
	// VirusScanner installs the Plus! 98 virus scanner file hooks
	// (Figure 5). The paper's Figure 4 data is *without* it.
	VirusScanner bool
	// SoundScheme enables the default Windows sound scheme: UI events play
	// sounds through SYSAUDIO/KMIXER (Table 4). The paper's headline runs
	// use the "no sound" scheme.
	SoundScheme bool
	// WorkerPriority overrides the kernel work-item worker's priority
	// (ablation knob for the paper's §4.2 explanation of the NT RT-24 vs
	// RT-28 gap). Zero keeps the OS default (real-time default, 24).
	WorkerPriority int
	// PIODisk disables the bus-master DMA configuration of Table 2 ("A
	// key point, easily overlooked, is that both OSs have been configured
	// to use DMA drivers for the IDE devices"): disk transfers then burn
	// CPU in the driver DPC at DISPATCH_LEVEL instead of overlapping.
	PIODisk bool
	// NICModeration selects the card's interrupt-moderation mode for the
	// storm frontier. The zero value (per-window) is the behaviour every
	// paper-era figure was produced under.
	NICModeration hw.Moderation
	// NICGap is the moderation spacing in cycles: the fixed inter-assert
	// gap for ITR, or the adaptive upper bound (the lower bound is
	// NICGap/16, floored at one ISR's worth). Zero defaults to 250 µs, the
	// e100-class default throttle.
	NICGap sim.Cycles
}

func (o *Options) fillDefaults() {
	if o.CPUFreq == 0 {
		o.CPUFreq = sim.DefaultFreq
	}
	if o.PITPeriod == 0 {
		o.PITPeriod = o.CPUFreq.FromMillis(1)
	}
}

// Machine is one assembled test system: CPU, OS, devices and stock
// drivers. Workload generators drive it through the activity methods
// (FileOp, UIEvent, NetDeliver, RenderFrame, PageFaultBurst); measurement
// tools attach to its kernel and PIT.
type Machine struct {
	OS      OS
	Profile *Profile
	Opts    Options

	Eng     *sim.Engine
	CPU     *cpu.CPU
	Kernel  *kernel.Kernel
	PIT     *hw.PIT
	Disk    *hw.Disk
	NIC     *hw.NIC
	Sound   *hw.Sound
	Display *hw.Display // built lazily by StartFramePacing

	rng *sim.RNG

	diskDpc    *kernel.DPC
	nicDpc     *kernel.DPC
	soundDpc   *kernel.DPC
	displayDpc *kernel.DPC

	// pending per-DPC extra work, fed by activity events and drained by
	// the device DPC bodies.
	diskDpcExtra    sim.Cycles
	nicDpcExtra     sim.Cycles
	soundDpcExtra   sim.Cycles
	displayDpcExtra sim.Cycles

	// completion callbacks for in-flight disk requests, run in DPC context.
	audio *audioPipeline

	// frame-pacing application (lazy, StartFramePacing).
	pacing *pacingApp

	// nicLat, when non-nil, switches the NIC DPC into storm accounting:
	// per-packet arrival-to-indication latency plus the per-OS NicIndicate
	// cost. Nil (the default) keeps the original drain path, so every
	// pre-storm artifact stays byte-identical.
	nicLat *stats.Histogram

	// Activity counters.
	fileOps, uiEvents, netBursts, frames, pageFaults uint64
}

// Build assembles a machine running the given OS.
func Build(os OS, opts Options) *Machine {
	opts.fillDefaults()
	prof := ProfileFor(os)

	eng := sim.NewEngine(opts.Seed)
	c := cpu.New(eng, opts.CPUFreq)
	kcfg := prof.Kernel
	if opts.WorkerPriority != 0 {
		kcfg.WorkerPriority = opts.WorkerPriority
	}
	k := kernel.New(eng, c, kcfg)
	k.Boot(VectorClock, opts.PITPeriod)

	m := &Machine{
		OS:      os,
		Profile: prof,
		Opts:    opts,
		Eng:     eng,
		CPU:     c,
		Kernel:  k,
		rng:     eng.RNG().Split(),
	}

	// The PIT drives the OS clock.
	m.PIT = hw.NewPIT(eng, k.InterruptForVector(VectorClock))
	m.PIT.Program(opts.PITPeriod)

	m.buildDisk()
	m.buildNIC()
	m.buildSound()
	return m
}

// Shutdown ends the machine's kernel threads (see kernel.Kernel.Shutdown).
// Call when done.
func (m *Machine) Shutdown() { m.Kernel.Shutdown() }

// RunFor advances the machine by d cycles of virtual time.
func (m *Machine) RunFor(d sim.Cycles) { m.Eng.RunFor(d) }

// Now returns the machine's current virtual time.
func (m *Machine) Now() sim.Time { return m.Eng.Now() }

// Freq returns the CPU clock frequency.
func (m *Machine) Freq() sim.Freq { return m.CPU.Freq() }

// MS converts milliseconds to cycles on this machine.
func (m *Machine) MS(v float64) sim.Cycles { return m.Freq().FromMillis(v) }

// --- stock drivers ---------------------------------------------------------

func (m *Machine) buildDisk() {
	k := m.Kernel
	intr := k.Connect(VectorDisk, 16, "ESDI_506", "_DiskISR", func(c *kernel.IsrContext) {
		c.Charge(us(4))
		c.QueueDpc(m.diskDpc)
	})
	m.Disk = hw.NewDisk(m.Eng, intr, m.Profile.DiskSeek, m.Profile.DiskBytesPerCycle)
	m.Disk.PIO = m.Opts.PIODisk
	m.diskDpc = kernel.NewDPC("IDEDISK", kernel.MediumImportance, func(c *kernel.DpcContext) {
		c.Charge(m.takeExtra(&m.diskDpcExtra))
		for {
			req, ok := m.Disk.CompleteTransfer()
			if !ok {
				break
			}
			if m.Disk.PIO {
				// Programmed I/O: the driver moves the data itself at
				// DISPATCH_LEVEL.
				c.Charge(m.Disk.TransferCycles(req))
			}
			if fn, ok := req.Tag.(func(*kernel.DpcContext)); ok && fn != nil {
				fn(c)
			}
		}
	})
}

func (m *Machine) buildNIC() {
	k := m.Kernel
	intr := k.Connect(VectorNIC, 17, "E100B", "_NicISR", func(c *kernel.IsrContext) {
		c.Charge(us(5))
		c.QueueDpc(m.nicDpc)
	})
	m.NIC = hw.NewNIC(m.Eng, intr, 128, us(12)) // ~100 Mbit inter-frame gap
	if m.Opts.NICModeration != hw.ModeratePerWindow {
		gap := m.Opts.NICGap
		if gap == 0 {
			gap = us(250) // e100-class default throttle
		}
		switch m.Opts.NICModeration {
		case hw.ModerateITR:
			m.NIC.SetModeration(hw.ModerateITR, gap, 0, 0)
		case hw.ModerateAdaptive:
			lo := gap / 16
			if lo < us(5) {
				lo = us(5) // no tighter than one ISR's worth
			}
			m.NIC.SetModeration(hw.ModerateAdaptive, 0, lo, gap)
		}
	}
	m.nicDpc = kernel.NewDPC("E100B", kernel.MediumImportance, func(c *kernel.DpcContext) {
		c.Charge(m.takeExtra(&m.nicDpcExtra))
		if m.nicLat != nil {
			// Storm accounting: record each packet's queueing delay and
			// charge the per-OS indication cost.
			waits := m.NIC.DrainTimed(32)
			for _, w := range waits {
				m.nicLat.Add(w)
			}
			c.Charge(sim.Cycles(len(waits)) * m.Profile.NicIndicate)
			return
		}
		c.Charge(sim.Cycles(m.NIC.Drain(32)) * us(6)) // per-packet indication cost
	})
}

func (m *Machine) buildSound() {
	k := m.Kernel
	intr := k.Connect(VectorSound, 18, "SNDCARD", "_SoundISR", func(c *kernel.IsrContext) {
		c.Charge(us(3))
		c.QueueDpc(m.soundDpc)
	})
	m.Sound = hw.NewSound(m.Eng, intr, 4)
	m.soundDpc = kernel.NewDPC("SNDCARD", kernel.MediumImportance, func(c *kernel.DpcContext) {
		c.Charge(m.takeExtra(&m.soundDpcExtra))
		if m.audio != nil {
			m.audio.onBufferComplete(c)
		}
	})
}

func (m *Machine) takeExtra(p *sim.Cycles) sim.Cycles {
	v := *p
	*p = 0
	return v
}

// --- interference plumbing -------------------------------------------------

// apply realizes one activity event's OS response: episodes, DPC work and
// work items per the profile.
func (m *Machine) apply(r eventResponse, lockFrames, maskFrames frameSet, extra *sim.Cycles) {
	if r.MaskProb > 0 && r.Mask != nil && m.rng.Bool(r.MaskProb) {
		f := maskFrames.pick(m.rng)
		m.Kernel.InjectEpisode(kernel.MaskInterrupts, r.Mask.Draw(m.rng), f.Module, f.Function)
	}
	if r.LockProb > 0 && r.Lock != nil && m.rng.Bool(r.LockProb) {
		f := lockFrames.pick(m.rng)
		m.Kernel.InjectEpisode(kernel.LockScheduler, r.Lock.Draw(m.rng), f.Module, f.Function)
	}
	if r.DpcWork != nil && extra != nil {
		*extra += r.DpcWork.Draw(m.rng)
	}
	if r.WorkItemProb > 0 && r.WorkItem != nil && m.rng.Bool(r.WorkItemProb) {
		m.Kernel.QueueWorkItem(kernel.WorkItem{
			Name:   "ospersona.work",
			Cycles: r.WorkItem.Draw(m.rng),
		})
	}
}

// --- activity surface (driven by the workload package) ---------------------

// FileOp performs an asynchronous file system operation of the given size.
// onDone (optional) runs in the disk DPC when the transfer completes. With
// the virus scanner installed, reads and writes may trigger a scan
// (Figure 5).
func (m *Machine) FileOp(bytes int, write bool, onDone func(*kernel.DpcContext)) {
	m.fileOps++
	m.apply(m.Profile.FileOp, m.Profile.LockFrames, m.Profile.MaskFrames, &m.diskDpcExtra)
	if m.Opts.VirusScanner {
		m.apply(m.Profile.VirusScanner, m.Profile.ScanFrames, m.Profile.MaskFrames, nil)
	}
	m.Disk.Submit(hw.DiskRequest{Bytes: bytes, Write: write, Tag: onDone})
}

// UIEvent models one user-interface event (keystroke batch, menu, dialog).
// With a sound scheme enabled it also plays an event sound through
// SYSAUDIO/KMIXER (Table 4: "EVERY time a submenu appears").
func (m *Machine) UIEvent() {
	m.uiEvents++
	m.apply(m.Profile.UIEvent, m.Profile.LockFrames, m.Profile.MaskFrames, nil)
	if m.Opts.SoundScheme {
		m.apply(m.Profile.SoundScheme, m.Profile.SoundFrames, m.Profile.MaskFrames, &m.soundDpcExtra)
		// The event sound reaches the card: one buffer-complete interrupt
		// carries the KMIXER processing into the DPC path.
		m.Kernel.InterruptForVector(VectorSound).Assert()
	}
}

// NetDeliver delivers a burst of received packets through the NIC.
func (m *Machine) NetDeliver(packets, bytesEach int) {
	m.netBursts++
	m.apply(m.Profile.NetBurst, m.Profile.LockFrames, m.Profile.MaskFrames, &m.nicDpcExtra)
	m.NIC.DeliverBurst(packets, bytesEach)
}

// RenderFrame models one 3D game frame: display/sound VxD activity.
func (m *Machine) RenderFrame() {
	m.frames++
	m.apply(m.Profile.Frame, m.Profile.LockFrames, m.Profile.MaskFrames, &m.soundDpcExtra)
	m.Kernel.InterruptForVector(VectorSound).Assert()
}

// PageFaultBurst models a hard page-fault burst: VMM page hunting plus the
// backing disk I/O.
func (m *Machine) PageFaultBurst(pages int) {
	m.pageFaults++
	m.apply(m.Profile.PageFault, m.Profile.LockFrames, m.Profile.MaskFrames, &m.diskDpcExtra)
	if pages > 0 {
		m.Disk.Submit(hw.DiskRequest{Bytes: pages * 4096})
	}
}

// Counters returns how many activity events of each kind were applied.
func (m *Machine) Counters() (fileOps, uiEvents, netBursts, frames, pageFaults uint64) {
	return m.fileOps, m.uiEvents, m.netBursts, m.frames, m.pageFaults
}

// String describes the machine.
func (m *Machine) String() string {
	return fmt.Sprintf("%s on %v Pentium II, PIT %v", m.Profile.Name, m.Freq(), m.PIT.Period())
}
