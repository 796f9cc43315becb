package workload_test

import (
	"runtime"
	"testing"
	"time"

	"wdmlat/internal/latdriver"
	"wdmlat/internal/ospersona"
	"wdmlat/internal/workload"
)

// stormCell builds an idle frontier cell: a machine with the latency tool
// running and storm accounting on, under a started storm at the given
// offered rate with the card's default per-assert moderation.
func stormCell(tb testing.TB, os ospersona.OS, pps float64) (*ospersona.Machine, *workload.Storm) {
	tb.Helper()
	m := ospersona.Build(os, ospersona.Options{Seed: 7})
	tb.Cleanup(m.Shutdown)
	m.EnableStormAccounting()
	tool, err := latdriver.Install(m.Kernel, m.PIT, latdriver.Options{
		HookTimerISR: m.Profile.SupportsLegacyTimerHook,
	})
	if err != nil {
		tb.Fatal(err)
	}
	if err := tool.Start(); err != nil {
		tb.Fatal(err)
	}
	s := workload.NewStorm(m, workload.StormConfig{PPS: pps})
	s.Start()
	return m, s
}

// TestStormSteadyStateAllocFree pins the storm's per-packet cost at zero
// heap allocations: once a cell is warm, neither the arrival stream nor
// the kernel's handling of the interrupts, DPCs and overhead episodes it
// causes may allocate per packet. The rates straddle the Win98 knee, so
// the Win98 cell at 65,536 pps is livelocked with a growing episode
// backlog while the NT4 cells keep up.
func TestStormSteadyStateAllocFree(t *testing.T) {
	for _, os := range []ospersona.OS{ospersona.Win98, ospersona.NT4} {
		for _, pps := range []float64{32768, 65536} {
			m, s := stormCell(t, os, pps)
			m.RunFor(m.Freq().Cycles(2 * time.Second))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			offered := s.Offered()
			m.RunFor(m.Freq().Cycles(2 * time.Second))
			runtime.ReadMemStats(&after)
			packets := s.Offered() - offered
			perPacket := float64(after.Mallocs-before.Mallocs) / float64(packets)
			t.Logf("%v at %.0f pps: %d packets, %.4f allocs/packet", os, pps, packets, perPacket)
			if perPacket >= 0.01 {
				t.Errorf("%v at %.0f pps: %.4f heap allocations per offered packet, want < 0.01",
					os, pps, perPacket)
			}
		}
	}
}

// BenchmarkStormSaturated times the storm layer where it costs most: a
// Win98 cell at 65,536 pps, past its knee, so the NIC ring, the DPC queue
// and the scheduler-lock episode backlog never drain. One op is one
// simulated second after a one-second warm-up; ns/packet divides the wall
// time by the packets offered.
func BenchmarkStormSaturated(b *testing.B) {
	m, s := stormCell(b, ospersona.Win98, 65536)
	sec := m.Freq().Cycles(time.Second)
	m.RunFor(sec)
	offered := s.Offered()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.RunFor(sec)
	}
	b.StopTimer()
	if n := s.Offered() - offered; n > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/packet")
	}
}
