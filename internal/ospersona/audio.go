package ospersona

import (
	"wdmlat/internal/kernel"
	"wdmlat/internal/sim"
)

// audioPipeline is the low-latency soft-audio path (§1: "a kernel mode ...
// low latency soft audio codec"): the sound device completes a buffer every
// period, the driver DPC signals the mixer thread, the mixer computes the
// next buffer and hands it back to the hardware. If the mixer thread is
// delayed past the buffered slack, the device underruns — audible breakup,
// the user-visible symptom Figure 5's virus-scanner data explains.
type audioPipeline struct {
	m        *Machine
	ev       *kernel.Event
	mixCost  sim.Dist
	mixPrio  int
	refill   func()
	pc       mixPC // mixStep's program counter
	running  bool
	signaled uint64
	mixes    uint64
}

// mixPC is the mixer thread's program counter: the operation its next
// step makes.
type mixPC int

const (
	mixRaise  mixPC = iota // raise to the mixing priority
	mixWait                // wait for the buffer-complete DPC
	mixMix                 // compute the next buffer
	mixRefill              // hand it back to the hardware
)

// AudioConfig configures StartAudio.
type AudioConfig struct {
	// PeriodMS is the buffer length in milliseconds (8–24 ms for real-time
	// audio per Table 1).
	PeriodMS float64
	// Buffers is the hardware queue depth: the pipeline's latency
	// tolerance is (Buffers-1) periods (§1). Default 4 (KMixer-style;
	// Table 1 notes 4 is "more realistic for low latency audio").
	Buffers int
	// MixPriority is the mixer thread priority; KMixer-style engines run
	// at real-time default priority.
	MixPriority int
	// MixCost is the per-buffer mixing computation; defaults to 10–20% of
	// the period.
	MixCost sim.Dist
}

// StartAudio starts the soft-audio pipeline. Underruns are counted by the
// sound device (Machine.Sound.Underruns).
func (m *Machine) StartAudio(cfg AudioConfig) {
	if m.audio != nil && m.audio.running {
		panic("ospersona: audio already running")
	}
	if cfg.PeriodMS <= 0 {
		cfg.PeriodMS = 16
	}
	if cfg.Buffers > 0 {
		m.Sound.SetDepth(cfg.Buffers)
	}
	if cfg.MixPriority == 0 {
		cfg.MixPriority = kernel.RealtimeDefault
	}
	if cfg.MixCost == nil {
		cfg.MixCost = sim.Uniform{
			Lo: sim.Cycles(float64(m.MS(cfg.PeriodMS)) * 0.10),
			Hi: sim.Cycles(float64(m.MS(cfg.PeriodMS)) * 0.20),
		}
	}

	a := &audioPipeline{
		m:       m,
		ev:      m.Kernel.NewEvent("KMixer.wake", kernel.SynchronizationEvent),
		mixCost: cfg.MixCost,
		mixPrio: cfg.MixPriority,
		refill:  m.Sound.Refill, // bind the method value once, not per buffer
		running: true,
	}
	m.audio = a
	m.Kernel.CreateStepThread("KMixer", kernel.NormalPriority, a.mixStep)
	m.Sound.Start(m.MS(cfg.PeriodMS))
}

// mixStep is the KMixer thread's step body (see kernel.ThreadContext):
// raise to the mixing priority, then per buffer wait, mix, and refill.
func (a *audioPipeline) mixStep(tc *kernel.ThreadContext) {
	switch a.pc {
	case mixRaise:
		a.pc = mixWait
		tc.SetPriority(a.mixPrio)
	case mixWait:
		a.pc = mixMix
		tc.Wait(a.ev)
	case mixMix:
		a.pc = mixRefill
		tc.ExecDist(a.mixCost)
	case mixRefill:
		a.mixes++
		a.pc = mixWait
		tc.Do(a.refill) // hand the mixed buffer back to the hardware
	}
}

// onBufferComplete runs in the sound DPC on every buffer-complete
// interrupt: it charges the per-buffer audio-path processing from the OS
// profile (KMixer format conversion, buffer bookkeeping) and signals the
// mixer thread.
func (a *audioPipeline) onBufferComplete(c *kernel.DpcContext) {
	if !a.running {
		return
	}
	a.m.apply(a.m.Profile.AudioMix, a.m.Profile.LockFrames, a.m.Profile.MaskFrames, nil)
	if d := a.m.Profile.AudioMix.DpcWork; d != nil {
		c.Charge(d.Draw(a.m.rng))
	}
	a.signaled++
	c.SetEvent(a.ev)
}

// StopAudio halts the pipeline (the mixer thread parks on its event).
func (m *Machine) StopAudio() {
	if m.audio != nil {
		m.audio.running = false
	}
	m.Sound.Stop()
}

// AudioStats reports pipeline progress: buffers signaled to the mixer and
// buffers mixed.
func (m *Machine) AudioStats() (signaled, mixed uint64) {
	if m.audio == nil {
		return 0, 0
	}
	return m.audio.signaled, m.audio.mixes
}
