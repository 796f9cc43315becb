package modem_test

import (
	"testing"
	"time"

	"wdmlat/internal/kernel"
	"wdmlat/internal/modem"
	"wdmlat/internal/ospersona"
	"wdmlat/internal/sim"
)

func newMachine(t *testing.T, os ospersona.OS, seed uint64) *ospersona.Machine {
	t.Helper()
	m := ospersona.Build(os, ospersona.Options{Seed: seed})
	t.Cleanup(m.Shutdown)
	return m
}

func TestDatapumpRunsCleanOnIdleSystem(t *testing.T) {
	for _, mod := range []modem.Modality{modem.DPCBased, modem.ThreadBased} {
		m := newMachine(t, ospersona.NT4, 1)
		d := modem.Attach(m.Kernel, modem.Config{CycleMS: 8, Buffers: 2, Modality: mod})
		m.Eng.At(1000, func(sim.Time) { d.Start() })
		m.RunFor(m.Freq().Cycles(5 * time.Second))
		if d.Cycles() < 600 {
			t.Fatalf("%v: only %d cycles", mod, d.Cycles())
		}
		if d.Underruns() != 0 {
			t.Fatalf("%v: %d underruns on an idle system", mod, d.Underruns())
		}
	}
}

func TestDatapumpUnderrunsUnderSchedulerLocks(t *testing.T) {
	// Thread-based pump with 8 ms tolerance against recurring 30 ms
	// scheduler locks: must miss buffers. The DPC-based pump must not
	// (locks don't block DPCs).
	run := func(mod modem.Modality) uint64 {
		m := newMachine(t, ospersona.Win98, 3)
		d := modem.Attach(m.Kernel, modem.Config{CycleMS: 8, Buffers: 2, Modality: mod})
		m.Eng.At(1000, func(sim.Time) { d.Start() })
		var inject func(sim.Time)
		inject = func(sim.Time) {
			m.Kernel.InjectEpisode(kernel.LockScheduler, m.MS(30), "VMM", "_Win16Lock")
			m.Eng.After(m.MS(100), inject)
		}
		m.Eng.After(m.MS(50), inject)
		m.RunFor(m.Freq().Cycles(10 * time.Second))
		return d.Underruns()
	}
	if u := run(modem.ThreadBased); u == 0 {
		t.Fatal("thread-based pump should underrun under scheduler locks")
	}
	if u := run(modem.DPCBased); u != 0 {
		t.Fatalf("DPC-based pump underran %d times under scheduler locks", u)
	}
}

func TestDatapumpUnderrunsUnderMaskedInterrupts(t *testing.T) {
	// Interrupt-masked windows delay the PIT itself: both modalities
	// suffer when the mask exceeds the tolerance.
	m := newMachine(t, ospersona.Win98, 5)
	d := modem.Attach(m.Kernel, modem.Config{CycleMS: 4, Buffers: 2, Modality: modem.DPCBased})
	m.Eng.At(1000, func(sim.Time) { d.Start() })
	var inject func(sim.Time)
	inject = func(sim.Time) {
		m.Kernel.InjectEpisode(kernel.MaskInterrupts, m.MS(12), "VXD", "_Cli")
		m.Eng.After(m.MS(80), inject)
	}
	m.Eng.After(m.MS(40), inject)
	m.RunFor(m.Freq().Cycles(10 * time.Second))
	if d.Underruns() == 0 {
		t.Fatal("12 ms masked windows must underrun a 4 ms tolerance pump")
	}
}

func TestMoreBufferingReducesUnderruns(t *testing.T) {
	run := func(buffers int) uint64 {
		m := newMachine(t, ospersona.Win98, 7)
		d := modem.Attach(m.Kernel, modem.Config{CycleMS: 8, Buffers: buffers, Modality: modem.ThreadBased})
		m.Eng.At(1000, func(sim.Time) { d.Start() })
		var inject func(sim.Time)
		inject = func(sim.Time) {
			m.Kernel.InjectEpisode(kernel.LockScheduler, m.MS(20), "VMM", "_Win16Lock")
			m.Eng.After(m.MS(150), inject)
		}
		m.Eng.After(m.MS(40), inject)
		m.RunFor(m.Freq().Cycles(20 * time.Second))
		return d.Underruns()
	}
	few, many := run(2), run(5)
	if many >= few {
		t.Fatalf("buffers 5 underruns (%d) should be < buffers 2 (%d)", many, few)
	}
}

func TestMTTFSeconds(t *testing.T) {
	m := newMachine(t, ospersona.Win98, 9)
	d := modem.Attach(m.Kernel, modem.Config{CycleMS: 4, Buffers: 2, Modality: modem.ThreadBased})
	m.Eng.At(1000, func(sim.Time) { d.Start() })
	if _, ok := d.MTTFSeconds(); ok {
		t.Fatal("MTTF should be unavailable before any underrun")
	}
	var inject func(sim.Time)
	inject = func(sim.Time) {
		m.Kernel.InjectEpisode(kernel.LockScheduler, m.MS(25), "VMM", "_X")
		m.Eng.After(m.MS(200), inject)
	}
	m.Eng.After(m.MS(100), inject)
	m.RunFor(m.Freq().Cycles(10 * time.Second))
	mttf, ok := d.MTTFSeconds()
	if !ok {
		t.Fatal("expected underruns")
	}
	if mttf <= 0 || mttf > 10 {
		t.Fatalf("MTTF = %v s over a 10 s run", mttf)
	}
}

func TestConfigDefaultsAndTolerance(t *testing.T) {
	c := modem.Config{CycleMS: 6, Buffers: 3}
	if c.ToleranceMS() != 12 {
		t.Fatalf("tolerance = %v", c.ToleranceMS())
	}
	m := newMachine(t, ospersona.NT4, 1)
	d := modem.Attach(m.Kernel, modem.Config{})
	cfg := d.Config()
	if cfg.CycleMS != 8 || cfg.Buffers != 2 || cfg.ComputeFraction != 0.25 {
		t.Fatalf("defaults: %+v", cfg)
	}
	if cfg.ThreadPriority != kernel.RealtimeHigh {
		t.Fatalf("default priority = %d", cfg.ThreadPriority)
	}
}

func TestPeriodicTaskMeetsDeadlinesWhenIdle(t *testing.T) {
	for _, mod := range []modem.Modality{modem.DPCBased, modem.ThreadBased} {
		m := newMachine(t, ospersona.NT4, 1)
		pt := modem.NewPeriodicTask(m.Kernel, "p", m.MS(8), m.MS(2), mod, 28)
		m.Eng.At(1000, func(sim.Time) { pt.Start() })
		m.RunFor(m.Freq().Cycles(5 * time.Second))
		if pt.Releases() < 600 {
			t.Fatalf("%v: %d releases", mod, pt.Releases())
		}
		if pt.Misses() != 0 {
			t.Fatalf("%v: %d misses on idle system", mod, pt.Misses())
		}
		if pt.Completions() < pt.Releases()-1 {
			t.Fatalf("%v: completions %d vs releases %d", mod, pt.Completions(), pt.Releases())
		}
	}
}

func TestPeriodicTaskReportsMissesUnderLoad(t *testing.T) {
	m := newMachine(t, ospersona.Win98, 11)
	pt := modem.NewPeriodicTask(m.Kernel, "p", m.MS(8), m.MS(2), modem.ThreadBased, 28)
	m.Eng.At(1000, func(sim.Time) { pt.Start() })
	var inject func(sim.Time)
	inject = func(sim.Time) {
		m.Kernel.InjectEpisode(kernel.LockScheduler, m.MS(40), "VMM", "_X")
		m.Eng.After(m.MS(120), inject)
	}
	m.Eng.After(m.MS(60), inject)
	m.RunFor(m.Freq().Cycles(10 * time.Second))
	if pt.Misses() == 0 {
		t.Fatal("expected deadline misses")
	}
	if pt.MissRate() <= 0 || pt.MissRate() > 1 {
		t.Fatalf("miss rate = %v", pt.MissRate())
	}
	if pt.Skips() == 0 {
		t.Fatal("40 ms locks should skip whole releases of an 8 ms task")
	}
	if pt.MaxLateness() == 0 {
		t.Fatal("max lateness not recorded")
	}
}

func TestPeriodicTaskStop(t *testing.T) {
	m := newMachine(t, ospersona.NT4, 1)
	pt := modem.NewPeriodicTask(m.Kernel, "p", m.MS(10), m.MS(1), modem.DPCBased, 0)
	m.Eng.At(1000, func(sim.Time) { pt.Start() })
	m.RunFor(m.Freq().Cycles(time.Second))
	pt.Stop()
	n := pt.Releases()
	m.RunFor(m.Freq().Cycles(time.Second))
	if pt.Releases() != n {
		t.Fatal("releases continued after Stop")
	}
}

func TestDpcDatapumpDelaysOtherDpcs(t *testing.T) {
	// The paper's §6 point: multi-millisecond computations in "interrupt
	// context" impact everyone else. A DPC-based pump with 25% of a 16 ms
	// cycle (4 ms at DISPATCH) must stretch another driver's DPC latency.
	measure := func(withPump bool) sim.Cycles {
		m := newMachine(t, ospersona.NT4, 13)
		if withPump {
			d := modem.Attach(m.Kernel, modem.Config{CycleMS: 16, Buffers: 2, Modality: modem.DPCBased})
			m.Eng.At(1000, func(sim.Time) { d.Start() })
		}
		var worst sim.Cycles
		probe := kernel.NewDPC("probe", kernel.MediumImportance, func(c *kernel.DpcContext) {})
		m.Kernel.SetHooks(kernel.Hooks{
			DpcStarted: func(dpc *kernel.DPC, queued, started sim.Time) {
				if dpc == probe {
					if lat := started.Sub(queued); lat > worst {
						worst = lat
					}
				}
			},
		})
		var fire func(sim.Time)
		fire = func(sim.Time) {
			m.Kernel.QueueDpc(probe)
			m.Eng.After(m.MS(3), fire)
		}
		m.Eng.After(m.MS(5), fire)
		m.RunFor(m.Freq().Cycles(5 * time.Second))
		return worst
	}
	without := measure(false)
	with := measure(true)
	if with < 10*without {
		t.Fatalf("DPC pump barely affected other DPCs: %d vs %d", with, without)
	}
}

func TestPeriodicTaskExternallyPaced(t *testing.T) {
	m := newMachine(t, ospersona.NT4, 17)
	pt := modem.NewPeriodicTask(m.Kernel, "p", m.MS(10), m.MS(2), modem.ThreadBased, 28)
	pt.ExternallyPaced = true
	var lats []sim.Cycles
	pt.OnComplete = func(now sim.Time, lat sim.Cycles) { lats = append(lats, lat) }

	// The external pacer: a kernel timer DPC standing in for the vblank.
	pacer := kernel.NewDPC("pacer", kernel.MediumImportance, func(c *kernel.DpcContext) {
		pt.Release(c)
	})
	tm := m.Kernel.NewTimer("pacer")
	m.Kernel.SetPeriodicTimer(tm, m.MS(10), m.MS(10), pacer)
	m.Eng.At(1000, func(sim.Time) { pt.Start() })
	m.RunFor(m.Freq().Cycles(2 * time.Second))

	if pt.Releases() < 150 {
		t.Fatalf("externally paced releases = %d, want ~200", pt.Releases())
	}
	if pt.Misses() != 0 {
		t.Fatalf("%d misses on idle system", pt.Misses())
	}
	if uint64(len(lats)) != pt.Completions() {
		t.Fatalf("OnComplete saw %d activations, completions %d", len(lats), pt.Completions())
	}
	for _, l := range lats {
		if l < m.MS(2) || l > m.MS(10) {
			t.Fatalf("release-to-complete latency %d outside [compute, deadline]", l)
		}
	}
}

func TestPeriodicTaskReleaseRequiresExternalPacing(t *testing.T) {
	m := newMachine(t, ospersona.NT4, 1)
	pt := modem.NewPeriodicTask(m.Kernel, "p", m.MS(10), m.MS(1), modem.DPCBased, 0)
	probe := kernel.NewDPC("probe", kernel.MediumImportance, func(c *kernel.DpcContext) {
		defer func() {
			if recover() == nil {
				t.Error("Release on a timer-paced task should panic")
			}
		}()
		pt.Release(c)
	})
	tm := m.Kernel.NewTimer("probe")
	m.Kernel.SetPeriodicTimer(tm, 1000, m.MS(100), probe)
	pt.Start()
	m.RunFor(m.MS(5))
}
