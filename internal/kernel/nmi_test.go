package kernel_test

import (
	"testing"

	"wdmlat/internal/kernel"
	"wdmlat/internal/sim"
)

func TestNMIDeliveredInsideMaskedWindow(t *testing.T) {
	b := newBench(t, 1, false)
	var hits []sim.Time
	b.k.SetNMIHandler(func(now sim.Time) { hits = append(hits, now) })

	// A 2 ms interrupt-masked window; regular interrupts stall, NMIs land.
	b.eng.At(100_000, func(sim.Time) {
		b.k.InjectEpisode(kernel.MaskInterrupts, 600_000, "VXD", "_Cli")
	})
	var regularAt sim.Time
	intr := b.k.Connect(40, 16, "DRV", "_ISR", func(c *kernel.IsrContext) {
		regularAt = c.Now()
	})
	b.eng.At(200_000, func(sim.Time) { intr.Assert() })
	b.eng.At(300_000, func(sim.Time) { b.k.AssertNMI() })
	b.eng.RunUntil(2_000_000)

	if len(hits) != 1 {
		t.Fatalf("NMI hits = %d", len(hits))
	}
	if hits[0] != 300_000 {
		t.Fatalf("NMI at %d, want 300000 (inside the masked window)", hits[0])
	}
	if regularAt < 700_000 {
		t.Fatalf("regular ISR at %d ran inside the masked window", regularAt)
	}
	if b.k.Counters().NMIs != 1 {
		t.Fatalf("NMI counter = %d", b.k.Counters().NMIs)
	}
}

func TestNMIPreemptsISR(t *testing.T) {
	b := newBench(t, 1, false)
	var nmiAt sim.Time
	b.k.SetNMIHandler(func(now sim.Time) { nmiAt = now })
	intr := b.k.Connect(40, 20, "DRV", "_ISR", func(c *kernel.IsrContext) {
		c.Charge(100_000) // long ISR
	})
	b.eng.At(10_000, func(sim.Time) { intr.Assert() })
	b.eng.At(50_000, func(sim.Time) { b.k.AssertNMI() })
	b.eng.RunUntil(1_000_000)
	if nmiAt != 50_000 {
		t.Fatalf("NMI at %d, want 50000 (mid-ISR)", nmiAt)
	}
}

func TestNMIWithoutHandlerIsNoop(t *testing.T) {
	b := newBench(t, 1, false)
	b.k.AssertNMI()
	if c := b.k.Counters(); c.NMIs != 0 || c.NMIsDropped != 0 {
		t.Fatalf("counters: %+v", c)
	}
}

func TestPerfCounterSamplerPeriodic(t *testing.T) {
	b := newBench(t, 1, false)
	n := 0
	b.k.SetNMIHandler(func(sim.Time) { n++ })
	s := b.k.NewPerfCounterSampler(75_000) // 0.25 ms
	s.Start()
	s.Start() // idempotent
	b.eng.RunUntil(3_000_000)
	// 10 ms / 0.25 ms = 40 samples.
	if n < 39 || n > 41 {
		t.Fatalf("samples = %d, want ~40", n)
	}
	s.Stop()
	before := n
	b.eng.RunUntil(6_000_000)
	if n != before {
		t.Fatal("sampler kept firing after Stop")
	}
}

func TestNMIStretchesPreemptedWork(t *testing.T) {
	b := newBench(t, 1, false)
	b.k.SetNMIHandler(func(sim.Time) {})
	var finished sim.Time
	b.k.CreateThread("w", 15, func(tc *kernel.ThreadContext) {
		tc.Exec(100_000)
		finished = tc.Now()
	})
	for i := 0; i < 10; i++ {
		at := sim.Time(10_000 * (i + 1))
		b.eng.At(at, func(sim.Time) { b.k.AssertNMI() })
	}
	b.eng.RunUntil(1_000_000)
	// Thread starts after 2 switches (worker first); 10 NMIs of ~300
	// cycles each stretch the 100k exec.
	base := sim.Time(2*costSwitch) + 100_000
	if finished <= base {
		t.Fatalf("finished at %d: NMIs did not consume time", finished)
	}
	if finished > base+10_000 {
		t.Fatalf("finished at %d: NMIs consumed too much", finished)
	}
}
