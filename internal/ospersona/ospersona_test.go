package ospersona

import (
	"testing"

	"wdmlat/internal/kernel"
	"wdmlat/internal/sim"
)

func build(t *testing.T, os OS, opts Options) *Machine {
	t.Helper()
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	m := Build(os, opts)
	t.Cleanup(m.Shutdown)
	return m
}

func TestBuildBothPersonalities(t *testing.T) {
	nt := build(t, NT4, Options{})
	w98 := build(t, Win98, Options{})
	if nt.Profile.SupportsLegacyTimerHook {
		t.Fatal("NT must not allow legacy timer ISR hooks (paper §2.2)")
	}
	if !w98.Profile.SupportsLegacyTimerHook {
		t.Fatal("Win98 must allow legacy timer ISR hooks")
	}
	if nt.Kernel.Name() == w98.Kernel.Name() {
		t.Fatal("personalities share a kernel name")
	}
	if nt.PIT.Period() != nt.MS(1) {
		t.Fatalf("PIT period = %d, want 1 ms (tool reprogramming)", nt.PIT.Period())
	}
	if nt.Kernel.Config().WorkerPriority != kernel.RealtimeDefault {
		t.Fatal("work-item worker must run at real-time default priority (paper §4.2)")
	}
}

func TestClockTicksDriveKernelTimers(t *testing.T) {
	m := build(t, NT4, Options{})
	fired := 0
	d := kernel.NewDPC("t", kernel.MediumImportance, func(c *kernel.DpcContext) { fired++ })
	tm := m.Kernel.NewTimer("t")
	m.Eng.At(100, func(sim.Time) {
		m.Kernel.SetPeriodicTimer(tm, m.MS(1), m.MS(10), d)
	})
	m.RunFor(m.MS(105))
	if fired < 9 || fired > 11 {
		t.Fatalf("periodic timer fired %d times in 105 ms with 10 ms period", fired)
	}
}

func TestFileOpCompletesThroughDiskPath(t *testing.T) {
	m := build(t, NT4, Options{})
	done := 0
	m.Eng.At(1000, func(sim.Time) {
		m.FileOp(64*1024, false, func(c *kernel.DpcContext) { done++ })
	})
	m.RunFor(m.MS(100))
	if done != 1 {
		t.Fatalf("file op completions = %d", done)
	}
	if m.Disk.Transfers() != 1 {
		t.Fatalf("disk transfers = %d", m.Disk.Transfers())
	}
	ctr := m.Kernel.Counters()
	if ctr.Interrupts == 0 || ctr.DPCs == 0 {
		t.Fatalf("file op produced no interrupt/DPC activity: %+v", ctr)
	}
}

func TestWin98FileOpsInjectMoreOverheadThanNT(t *testing.T) {
	run := func(os OS) kernel.Counters {
		m := build(t, os, Options{Seed: 7})
		for i := 0; i < 2000; i++ {
			i := i
			m.Eng.At(sim.Time(i)*sim.Time(m.MS(1)), func(sim.Time) {
				m.FileOp(32*1024, i%2 == 0, nil)
			})
		}
		m.RunFor(m.MS(3000))
		return m.Kernel.Counters()
	}
	nt, w98 := run(NT4), run(Win98)
	if w98.EpisodeCycles < 3*nt.EpisodeCycles {
		t.Fatalf("Win98 episode cycles %d not well above NT %d", w98.EpisodeCycles, nt.EpisodeCycles)
	}
}

func TestSoundSchemeRoutesUIEventsToSoundPath(t *testing.T) {
	quiet := build(t, Win98, Options{Seed: 3})
	loud := build(t, Win98, Options{Seed: 3, SoundScheme: true})
	for _, m := range []*Machine{quiet, loud} {
		for i := 0; i < 200; i++ {
			i := i
			m.Eng.At(sim.Time(i)*sim.Time(m.MS(5)), func(sim.Time) { m.UIEvent() })
		}
		m.RunFor(m.MS(1100))
	}
	qc, lc := quiet.Kernel.Counters(), loud.Kernel.Counters()
	if lc.Interrupts <= qc.Interrupts {
		t.Fatalf("sound scheme produced no extra interrupts: %d vs %d", lc.Interrupts, qc.Interrupts)
	}
	if lc.DPCCycles <= qc.DPCCycles {
		t.Fatal("sound scheme produced no extra DPC work")
	}
}

func TestVirusScannerAddsSchedulerLocks(t *testing.T) {
	clean := build(t, Win98, Options{Seed: 5})
	dirty := build(t, Win98, Options{Seed: 5, VirusScanner: true})
	for _, m := range []*Machine{clean, dirty} {
		for i := 0; i < 3000; i++ {
			i := i
			m.Eng.At(sim.Time(i)*sim.Time(m.MS(2)), func(sim.Time) {
				m.FileOp(16*1024, false, nil)
			})
		}
		m.RunFor(m.MS(6100))
	}
	cc, dc := clean.Kernel.Counters(), dirty.Kernel.Counters()
	if dc.EpisodeCycles <= cc.EpisodeCycles {
		t.Fatalf("virus scanner added no episode time: %d vs %d", dc.EpisodeCycles, cc.EpisodeCycles)
	}
}

func TestAudioPipelineMixesWithoutUnderrunsWhenIdle(t *testing.T) {
	m := build(t, NT4, Options{})
	m.StartAudio(AudioConfig{PeriodMS: 16})
	m.RunFor(m.MS(2000))
	if u := m.Sound.Underruns(); u != 0 {
		t.Fatalf("idle NT audio underruns = %d", u)
	}
	signaled, mixed := m.AudioStats()
	if signaled < 100 || mixed < 100 {
		t.Fatalf("audio pipeline barely ran: signaled=%d mixed=%d", signaled, mixed)
	}
}

func TestAudioUnderrunsUnderHeavySchedulerLocks(t *testing.T) {
	m := build(t, Win98, Options{Seed: 11})
	m.StartAudio(AudioConfig{PeriodMS: 8})
	// Saturate with 30 ms scheduler locks every 50 ms: the mixer thread
	// cannot keep a 4-deep 8 ms queue alive.
	var inject func(sim.Time)
	inject = func(sim.Time) {
		m.Kernel.InjectEpisode(kernel.LockScheduler, m.MS(30), "VMM", "_Win16Lock")
		m.Eng.After(m.MS(50), inject)
	}
	m.Eng.After(m.MS(100), inject)
	m.RunFor(m.MS(3000))
	if u := m.Sound.Underruns(); u == 0 {
		t.Fatal("expected audio underruns under heavy scheduler locking")
	}
}

func TestAppRunsScriptToCompletion(t *testing.T) {
	m := build(t, NT4, Options{})
	app := m.NewApp("winword")
	m.Eng.At(1000, func(sim.Time) {
		app.Submit(
			Op{UI: true, Compute: m.MS(2)},
			Op{ReadBytes: 128 * 1024},
			Op{Compute: m.MS(5)},
			Op{WriteBytes: 64 * 1024},
			Op{UI: true},
		)
	})
	m.RunFor(m.MS(2000))
	if app.Done() != 5 {
		t.Fatalf("app completed %d/5 ops", app.Done())
	}
	if app.Pending() != 0 {
		t.Fatalf("pending = %d", app.Pending())
	}
	if !app.IdleEvent().Signaled() {
		t.Fatal("idle event not signaled after drain")
	}
	fileOps, uiEvents, _, _, _ := m.Counters()
	if fileOps != 2 || uiEvents != 2 {
		t.Fatalf("activity counters: files=%d ui=%d", fileOps, uiEvents)
	}
}

// TestAppQueueFIFO: interleaved submits and pops keep submission order
// and an exact Pending while the queue wraps its ring many times, and its
// backing stays within twice the peak backlog. The pops call the app's pop
// stage directly, with no simulation running.
func TestAppQueueFIFO(t *testing.T) {
	app := build(t, NT4, Options{}).NewApp("fifo")
	submitted, popped, peak := 0, 0, 0
	for round := 0; round < 400; round++ {
		ops := make([]Op, 1+round%7)
		for i := range ops {
			ops[i].Compute = sim.Cycles(submitted)
			submitted++
		}
		app.Submit(ops...)
		peak = max(peak, app.Pending())
		pops := len(ops) - 1 // a slowly growing backlog ...
		if round%9 == 8 {
			pops = app.Pending() // ... drained now and then
		}
		for i := 0; i < pops; i++ {
			app.popFn()
			if app.op.Compute != sim.Cycles(popped) {
				t.Fatalf("round %d: popped op %d, want %d", round, app.op.Compute, popped)
			}
			popped++
		}
		if app.Pending() != submitted-popped {
			t.Fatalf("round %d: Pending %d, want %d", round, app.Pending(), submitted-popped)
		}
	}
	if app.queue.Cap() > max(8, 2*peak) {
		t.Fatalf("queue backing %d slots for a peak backlog of %d", app.queue.Cap(), peak)
	}
}

func TestAppThinkTimePausesThread(t *testing.T) {
	m := build(t, NT4, Options{})
	app := m.NewApp("reader")
	m.Eng.At(1000, func(sim.Time) {
		app.Submit(Op{ThinkMS: 100, Compute: 1000})
	})
	m.RunFor(m.MS(50))
	if app.Done() != 0 {
		t.Fatal("op finished during think time")
	}
	m.RunFor(m.MS(200))
	if app.Done() != 1 {
		t.Fatalf("op not finished after think time: %d", app.Done())
	}
}

func TestDeterministicMachineRuns(t *testing.T) {
	run := func() kernel.Counters {
		m := Build(Win98, Options{Seed: 42, SoundScheme: true})
		defer m.Shutdown()
		app := m.NewApp("app")
		for i := 0; i < 50; i++ {
			i := i
			m.Eng.At(sim.Time(i)*sim.Time(m.MS(7)), func(sim.Time) {
				m.UIEvent()
				m.FileOp(8192, false, nil)
				if i%10 == 0 {
					m.NetDeliver(5, 1460)
				}
				app.Submit(Op{Compute: m.MS(1)})
			})
		}
		m.RunFor(m.MS(1000))
		return m.Kernel.Counters()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("non-deterministic machine: %+v vs %+v", a, b)
	}
}

func TestNetDeliverDrivesNicPath(t *testing.T) {
	m := build(t, NT4, Options{})
	m.Eng.At(1000, func(sim.Time) { m.NetDeliver(20, 1460) })
	m.RunFor(m.MS(100))
	if m.NIC.Delivered() != 20 {
		t.Fatalf("delivered %d packets", m.NIC.Delivered())
	}
}

func TestRenderFrameAndPageFault(t *testing.T) {
	m := build(t, Win98, Options{Seed: 13})
	for i := 0; i < 100; i++ {
		i := i
		m.Eng.At(sim.Time(i)*sim.Time(m.MS(33)), func(sim.Time) { m.RenderFrame() })
	}
	m.Eng.At(sim.Time(m.MS(50)), func(sim.Time) { m.PageFaultBurst(16) })
	m.RunFor(m.MS(3500))
	_, _, _, frames, pf := m.Counters()
	if frames != 100 || pf != 1 {
		t.Fatalf("frames=%d pagefaults=%d", frames, pf)
	}
	if m.Disk.Transfers() == 0 {
		t.Fatal("page fault did not reach the disk")
	}
}

func TestWin2000BetaProfileShape(t *testing.T) {
	p := Win2000BetaProfile()
	if p.OS != Win2000Beta || p.Name == "" {
		t.Fatalf("profile identity: %v %q", p.OS, p.Name)
	}
	// NT lineage: no legacy IDT patching, worker at RT default.
	if p.SupportsLegacyTimerHook {
		t.Fatal("Win2000 must not allow legacy timer hooks")
	}
	if p.Kernel.WorkerPriority != kernel.RealtimeDefault {
		t.Fatal("worker priority should remain RT default")
	}
	// Beta overheads sit at or above NT 4.0's.
	nt := NT4Profile()
	if p.Kernel.IsrEntry.Mean() < nt.Kernel.IsrEntry.Mean() {
		t.Fatal("Beta ISR entry should not be cheaper than NT 4.0")
	}
	m := Build(Win2000Beta, Options{Seed: 1})
	defer m.Shutdown()
	if m.Kernel.Name() != p.Name {
		t.Fatalf("kernel name %q", m.Kernel.Name())
	}
}

func TestMachineStringAndAccessors(t *testing.T) {
	m := Build(NT4, Options{Seed: 1})
	defer m.Shutdown()
	if m.String() == "" || m.Freq() != 300_000_000 {
		t.Fatalf("machine accessors: %q %v", m.String(), m.Freq())
	}
	if m.MS(1) != 300_000 {
		t.Fatalf("MS(1) = %d", m.MS(1))
	}
	if m.Now() != 0 {
		t.Fatalf("Now = %d at boot", m.Now())
	}
}
