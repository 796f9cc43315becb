package causetool_test

import (
	"strings"
	"testing"
	"time"

	"wdmlat/internal/causetool"
	"wdmlat/internal/kernel"
	"wdmlat/internal/sim"
)

func TestNMISourceSamplesAtConfiguredRate(t *testing.T) {
	m := newMachine(t, 21)
	tool := causetool.Attach(m.Kernel, causetool.Options{
		Source:       causetool.PerfCounterNMI,
		SamplePeriod: m.MS(0.25),
	})
	m.RunFor(m.Freq().Cycles(time.Second))
	// 4 kHz vs the PIT hook's 1 kHz.
	if n := tool.Samples(); n < 3900 || n > 4100 {
		t.Fatalf("NMI samples = %d, want ~4000", n)
	}
	tool.Detach()
	before := tool.Samples()
	m.RunFor(m.Freq().Cycles(time.Second))
	if tool.Samples() != before {
		t.Fatal("sampler survived Detach")
	}
}

// The §6.1 payoff: the PIT hook cannot see inside interrupt-masked windows
// (its own interrupt is masked); the NMI sampler can, so masked-window
// episodes get attributed.
func TestNMISeesInsideMaskedWindowsPITDoesNot(t *testing.T) {
	countMaskedSamples := func(src causetool.Source) int {
		m := newMachine(t, 22)
		tool := causetool.Attach(m.Kernel, causetool.Options{
			Source:       src,
			SamplePeriod: m.MS(0.25),
			Threshold:    m.MS(3),
			RingSize:     256, // cover the whole 40 ms dump window at 4 kHz
		})
		// Repeating 5 ms masked windows attributed to a VxD.
		var inject func(sim.Time)
		inject = func(sim.Time) {
			m.Kernel.InjectEpisode(kernel.MaskInterrupts, m.MS(5), "VXD", "_MaskedRegion")
			m.Eng.After(m.MS(50), inject)
		}
		m.Eng.After(m.MS(10), inject)
		m.RunFor(m.Freq().Cycles(2 * time.Second))
		// Dump everything currently in the ring as one episode.
		tool.OnLatency(m.MS(40))
		eps := tool.Episodes()
		if len(eps) == 0 {
			return 0
		}
		n := 0
		for _, fc := range eps[0].Analysis() {
			if fc.Frame.Module == "VXD" {
				n += fc.Count
			}
		}
		return n
	}
	pit := countMaskedSamples(causetool.PITHook)
	nmi := countMaskedSamples(causetool.PerfCounterNMI)
	if pit != 0 {
		t.Fatalf("PIT hook sampled %d times inside masked windows", pit)
	}
	if nmi == 0 {
		t.Fatal("NMI sampler saw nothing inside masked windows")
	}
}

func TestStackWalkingProducesCallTrees(t *testing.T) {
	m := newMachine(t, 23)
	tool := causetool.Attach(m.Kernel, causetool.Options{
		Source:       causetool.PerfCounterNMI,
		SamplePeriod: m.MS(0.2),
		Threshold:    m.MS(3),
		WalkStack:    true,
		RingSize:     1024,
	})
	// A scheduler-locked episode with a long DPC running on top of it:
	// NMI samples during the DPC see the two-deep stack [episode, DPC].
	d := kernel.NewDPC("LONGDPC", kernel.MediumImportance, func(c *kernel.DpcContext) {
		c.Charge(m.MS(4))
	})
	m.Eng.At(sim.Time(m.MS(10)), func(sim.Time) {
		m.Kernel.InjectEpisode(kernel.LockScheduler, m.MS(12), "VMM", "_mmFindContig")
	})
	m.Eng.At(sim.Time(m.MS(12)), func(sim.Time) { m.Kernel.QueueDpc(d) })
	m.RunFor(m.Freq().Cycles(40 * time.Millisecond))
	tool.OnLatency(m.MS(35)) // window covers the episode at 10-22 ms

	eps := tool.Episodes()
	if len(eps) == 0 {
		t.Fatal("no episode")
	}
	trees := eps[0].CallTrees()
	if len(trees) == 0 {
		t.Fatal("no call trees recorded")
	}
	var sawNested bool
	for _, tc := range trees {
		if len(tc.Path) >= 2 &&
			tc.Path[0].Module == "VMM" && tc.Path[1].Module == "LONGDPC" {
			sawNested = true
		}
	}
	if !sawNested {
		paths := make([]string, 0, len(trees))
		for _, tc := range trees {
			paths = append(paths, causetool.FormatPath(tc.Path))
		}
		t.Fatalf("no VMM -> LONGDPC tree; got:\n%s", strings.Join(paths, "\n"))
	}
}

func TestFormatIncludesCallTrees(t *testing.T) {
	m := newMachine(t, 24)
	tool := causetool.Attach(m.Kernel, causetool.Options{
		Source:       causetool.PerfCounterNMI,
		SamplePeriod: m.MS(0.25),
		Threshold:    1,
		WalkStack:    true,
		RingSize:     512,
	})
	m.Eng.At(sim.Time(m.MS(5)), func(sim.Time) {
		m.Kernel.InjectEpisode(kernel.LockScheduler, m.MS(8), "VMM", "_X")
	})
	m.RunFor(m.Freq().Cycles(20 * time.Millisecond))
	tool.OnLatency(m.MS(18))
	var b strings.Builder
	if err := tool.FormatAll(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "call trees:") {
		t.Fatalf("no call trees section:\n%s", b.String())
	}
}
