package causetool_test

import (
	"strings"
	"testing"
	"time"

	"wdmlat/internal/causetool"
	"wdmlat/internal/kernel"
	"wdmlat/internal/latdriver"
	"wdmlat/internal/ospersona"
	"wdmlat/internal/sim"
)

func newMachine(t *testing.T, seed uint64) *ospersona.Machine {
	t.Helper()
	m := ospersona.Build(ospersona.Win98, ospersona.Options{Seed: seed})
	t.Cleanup(m.Shutdown)
	return m
}

func TestHookSamplesEveryTick(t *testing.T) {
	m := newMachine(t, 1)
	tool := causetool.Attach(m.Kernel, causetool.Options{})
	m.RunFor(m.Freq().Cycles(time.Second))
	// 1 kHz PIT for one second.
	if n := tool.Samples(); n < 990 || n > 1010 {
		t.Fatalf("hook samples = %d, want ~1000", n)
	}
}

func TestEpisodeCapturesLockingFrames(t *testing.T) {
	m := newMachine(t, 2)
	tool := causetool.Attach(m.Kernel, causetool.Options{
		Threshold: m.MS(5),
	})
	lat, err := latdriver.Install(m.Kernel, m.PIT, latdriver.Options{
		OnThreadLatency: func(_ int, l sim.Cycles) { tool.OnLatency(l) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := lat.Start(); err != nil {
		t.Fatal(err)
	}
	m.RunFor(m.Freq().Cycles(100 * time.Millisecond))

	// Inject a 12 ms scheduler-locked episode attributed to the VMM: the
	// measurement thread's next wakeup crosses the threshold and dumps the
	// ring, which must contain VMM samples (the hook fires every 1 ms
	// during the episode: DPCs and ISRs still run under a scheduler lock).
	m.Eng.At(m.Now().Add(m.MS(10)), func(sim.Time) {
		m.Kernel.InjectEpisode(kernel.LockScheduler, m.MS(12), "VMM", "_mmFindContig")
	})
	m.RunFor(m.Freq().Cycles(200 * time.Millisecond))

	eps := tool.Episodes()
	if len(eps) == 0 {
		t.Fatal("no episode captured")
	}
	found := false
	for _, fc := range eps[0].Analysis() {
		if fc.Frame.Module == "VMM" && fc.Frame.Function == "_mmFindContig" {
			if fc.Count < 5 {
				t.Fatalf("only %d VMM samples in a 12 ms episode", fc.Count)
			}
			found = true
		}
	}
	if !found {
		t.Fatalf("VMM frame missing from episode analysis: %+v", eps[0].Analysis())
	}
}

func TestNoEpisodeBelowThreshold(t *testing.T) {
	m := newMachine(t, 3)
	tool := causetool.Attach(m.Kernel, causetool.Options{Threshold: m.MS(5)})
	lat, _ := latdriver.Install(m.Kernel, m.PIT, latdriver.Options{
		OnThreadLatency: func(_ int, l sim.Cycles) { tool.OnLatency(l) },
	})
	lat.Start()
	// Idle machine: thread latencies are microseconds.
	m.RunFor(m.Freq().Cycles(2 * time.Second))
	if n := len(tool.Episodes()); n != 0 {
		t.Fatalf("captured %d episodes on an idle machine", n)
	}
	if tool.Triggered() != 0 {
		t.Fatal("no trigger expected")
	}
}

func TestFormatMatchesTable4Layout(t *testing.T) {
	m := newMachine(t, 4)
	tool := causetool.Attach(m.Kernel, causetool.Options{Threshold: m.MS(3)})
	lat, _ := latdriver.Install(m.Kernel, m.PIT, latdriver.Options{
		OnThreadLatency: func(_ int, l sim.Cycles) { tool.OnLatency(l) },
	})
	lat.Start()
	m.RunFor(m.Freq().Cycles(100 * time.Millisecond))
	m.Eng.At(m.Now().Add(m.MS(7)), func(sim.Time) {
		m.Kernel.InjectEpisode(kernel.LockScheduler, m.MS(6), "SYSAUDIO", "_ProcessTopologyConnection")
	})
	m.RunFor(m.Freq().Cycles(100 * time.Millisecond))

	eps := tool.Episodes()
	if len(eps) == 0 {
		t.Fatal("no episode")
	}
	var b strings.Builder
	if err := tool.FormatAll(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "Analysis of latency episode number 0") {
		t.Fatalf("missing header:\n%s", out)
	}
	if !strings.Contains(out, "samples in SYSAUDIO function _ProcessTopologyConnection") {
		t.Fatalf("missing SYSAUDIO line:\n%s", out)
	}
	if !strings.Contains(out, "total samples in episode") {
		t.Fatalf("missing total line:\n%s", out)
	}
}

func TestDetachRestoresVector(t *testing.T) {
	m := newMachine(t, 5)
	tool := causetool.Attach(m.Kernel, causetool.Options{})
	m.RunFor(m.Freq().Cycles(100 * time.Millisecond))
	n := tool.Samples()
	tool.Detach()
	m.RunFor(m.Freq().Cycles(100 * time.Millisecond))
	if tool.Samples() != n {
		t.Fatal("hook still sampling after Detach")
	}
	// The clock still works after detach.
	fired := false
	d := kernel.NewDPC("x", kernel.MediumImportance, func(c *kernel.DpcContext) { fired = true })
	tm := m.Kernel.NewTimer("x")
	m.Eng.At(m.Now().Add(1000), func(sim.Time) { m.Kernel.SetTimer(tm, m.MS(2), d) })
	m.RunFor(m.Freq().Cycles(50 * time.Millisecond))
	if !fired {
		t.Fatal("clock broken after Detach")
	}
}

func TestMaxEpisodesBound(t *testing.T) {
	m := newMachine(t, 6)
	tool := causetool.Attach(m.Kernel, causetool.Options{Threshold: 1, MaxEpisodes: 3})
	for i := 0; i < 10; i++ {
		// Distinct, non-overlapping latency windows.
		m.RunFor(m.MS(20))
		tool.OnLatency(m.MS(10))
	}
	if len(tool.Episodes()) != 3 {
		t.Fatalf("retained %d episodes, want 3", len(tool.Episodes()))
	}
	if tool.Triggered() != 10 {
		t.Fatalf("triggered = %d, want 10", tool.Triggered())
	}
}

func TestInterruptedFrameFallsBackToThreadAndIdle(t *testing.T) {
	m := newMachine(t, 7)
	tool := causetool.Attach(m.Kernel, causetool.Options{Threshold: 1})
	// Busy thread spinning: samples should attribute to the thread name.
	m.Kernel.CreateThread("spinner", 10, func(tc *kernel.ThreadContext) {
		tc.Exec(m.Freq().Cycles(10 * time.Second))
	})
	m.RunFor(m.Freq().Cycles(500 * time.Millisecond))
	tool.OnLatency(m.MS(400))
	eps := tool.Episodes()
	if len(eps) != 1 {
		t.Fatal("no episode")
	}
	sawSpinner := false
	for _, fc := range eps[0].Analysis() {
		if fc.Frame.Module == "spinner" {
			sawSpinner = true
		}
	}
	if !sawSpinner {
		t.Fatalf("spinner thread not attributed: %+v", eps[0].Analysis())
	}
}
