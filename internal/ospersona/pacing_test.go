package ospersona

import (
	"testing"

	"wdmlat/internal/hw"
	"wdmlat/internal/kernel"
	"wdmlat/internal/sim"
)

func TestFramePacingIdleMachineMakesEveryDeadline(t *testing.T) {
	m := build(t, NT4, Options{})
	m.StartFramePacing(PacingConfig{})
	m.RunFor(m.MS(2000))
	m.StopFramePacing()

	s, ok := m.FramePacingStats()
	if !ok {
		t.Fatal("FramePacingStats not ok after pacing ran")
	}
	// 2 s at 16.7 ms ≈ 119 vblanks.
	if s.VBlanks < 110 || s.VBlanks > 125 {
		t.Fatalf("vblanks = %d, want ~119", s.VBlanks)
	}
	if s.Releases == 0 || s.Completions == 0 {
		t.Fatalf("releases %d / completions %d, want nonzero", s.Releases, s.Completions)
	}
	// An idle NT machine rendering 40%-load frames at RT-24 must not miss.
	if s.Misses != 0 {
		t.Fatalf("misses = %d on an idle machine, want 0", s.Misses)
	}
	if s.FrameLat.N() != s.Completions {
		t.Fatalf("frame-latency samples %d != completions %d", s.FrameLat.N(), s.Completions)
	}
	if s.Jitter.N() != s.Completions-1 {
		t.Fatalf("jitter samples %d, want completions-1 = %d", s.Jitter.N(), s.Completions-1)
	}
	// Present-to-present spacing on an idle machine tracks the raster: the
	// worst jitter should be well under a millisecond.
	if max := s.Jitter.Max(); max > m.MS(1) {
		t.Fatalf("idle-machine jitter max %v cycles > 1 ms", max)
	}
}

func TestFramePacingMissesUnderSchedulerLock(t *testing.T) {
	m := build(t, Win98, Options{})
	m.StartFramePacing(PacingConfig{})
	// Inject long scheduler-locked windows mid-run: vblank ISR/DPC still
	// run, but the presentation thread cannot be dispatched, so frames
	// miss (the Win98 failure mode of §4.1).
	for i := 1; i <= 20; i++ {
		d := sim.Cycles(i) * m.MS(100)
		m.Eng.After(d, func(sim.Time) {
			m.Kernel.InjectEpisode(kernel.LockScheduler, m.MS(40), "VMM", "_TestLock")
		})
	}
	m.RunFor(m.MS(2500))
	m.StopFramePacing()

	s, _ := m.FramePacingStats()
	if s.Misses == 0 {
		t.Fatal("40 ms scheduler locks every 100 ms must miss 16.7 ms frames")
	}
	if s.Skips == 0 {
		t.Fatal("a >2-frame stall must skip at least one release")
	}
	if s.MaxLateness < m.MS(10) {
		t.Fatalf("max lateness %v cycles, want >= 10 ms worth", s.MaxLateness)
	}
}

func TestFramePacingRestartAndValidation(t *testing.T) {
	m := build(t, NT4, Options{})
	m.StartFramePacing(PacingConfig{})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("double StartFramePacing should panic")
			}
		}()
		m.StartFramePacing(PacingConfig{})
	}()
	m.RunFor(m.MS(100))
	m.StopFramePacing()
	m.StopFramePacing() // idempotent

	if _, ok := m.FramePacingStats(); !ok {
		t.Fatal("stats should survive stop")
	}
	fresh := build(t, NT4, Options{Seed: 2})
	if _, ok := fresh.FramePacingStats(); ok {
		t.Fatal("stats ok on a machine that never paced")
	}
}

func TestNICModerationOptionsWireThrough(t *testing.T) {
	def := build(t, NT4, Options{})
	if def.NIC.Moderation() != hw.ModeratePerWindow {
		t.Fatal("default machine must keep per-window moderation")
	}
	itr := build(t, NT4, Options{Seed: 3, NICModeration: hw.ModerateITR})
	if itr.NIC.Moderation() != hw.ModerateITR || itr.NIC.Gap() != us(250) {
		t.Fatalf("ITR machine: mode %v gap %d, want itr/us(250)", itr.NIC.Moderation(), itr.NIC.Gap())
	}
	ad := build(t, NT4, Options{Seed: 4, NICModeration: hw.ModerateAdaptive, NICGap: us(1600)})
	if ad.NIC.Moderation() != hw.ModerateAdaptive || ad.NIC.Gap() != us(100) {
		t.Fatalf("adaptive machine: mode %v gap %d, want adaptive starting at us(100)", ad.NIC.Moderation(), ad.NIC.Gap())
	}
}

func TestStormAccountingChargesPerOSIndication(t *testing.T) {
	m := build(t, Win98, Options{})
	hist := m.EnableStormAccounting()
	if m.EnableStormAccounting() != hist {
		t.Fatal("EnableStormAccounting must be idempotent")
	}
	for i := 0; i < 10; i++ {
		d := sim.Cycles(i) * m.MS(1)
		m.Eng.After(d, func(sim.Time) { m.StormPacket(1460) })
	}
	m.RunFor(m.MS(50))
	if hist.N() != 10 {
		t.Fatalf("nic latency samples = %d, want 10", hist.N())
	}
	if m.NIC.Delivered() != 10 {
		t.Fatalf("delivered = %d, want 10", m.NIC.Delivered())
	}
}
