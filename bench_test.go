// Benchmarks regenerating every table and figure of the paper, plus
// ablation benches for the design choices DESIGN.md §7 calls out and
// substrate microbenchmarks. Each experiment bench runs a short virtual
// collection per iteration and reports the headline quantity as a custom
// metric; cmd/reproduce runs the same pipelines at full length.
package wdmlat_test

import (
	"testing"
	"time"

	"wdmlat/internal/campaign"
	"wdmlat/internal/core"
	"wdmlat/internal/cpu"
	"wdmlat/internal/interactive"
	"wdmlat/internal/kernel"
	"wdmlat/internal/microbench"
	"wdmlat/internal/modem"
	"wdmlat/internal/mttf"
	"wdmlat/internal/ospersona"
	"wdmlat/internal/rma"
	"wdmlat/internal/sim"
	"wdmlat/internal/stats"
	"wdmlat/internal/workload"
)

const benchDur = 20 * time.Second // virtual collection per iteration

// BenchmarkTable1LatencyTolerances regenerates Table 1.
func BenchmarkTable1LatencyTolerances(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := mttf.Table1()
		if len(rows) != 4 || rows[0].TolLoMS != 4 {
			b.Fatal("Table 1 corrupted")
		}
	}
}

// figure4 runs one Figure 4 cell: an OS × workload measurement.
func figure4(b *testing.B, os ospersona.OS, wl workload.Class) *core.Result {
	b.Helper()
	var r *core.Result
	for i := 0; i < b.N; i++ {
		r = core.Run(core.RunConfig{
			OS:       os,
			Workload: wl,
			Duration: benchDur,
			Seed:     uint64(i + 1),
		})
	}
	return r
}

// BenchmarkFigure4 regenerates the six Figure 4 panels, one sub-benchmark
// per OS × workload cell, reporting the distribution's worst case.
func BenchmarkFigure4(b *testing.B) {
	for _, os := range []ospersona.OS{ospersona.NT4, ospersona.Win98} {
		for _, wl := range workload.Classes {
			os, wl := os, wl
			b.Run(os.String()+"/"+wl.String(), func(b *testing.B) {
				r := figure4(b, os, wl)
				b.ReportMetric(r.Freq.Millis(r.DpcInt.Max()), "dpcint-worst-ms")
				b.ReportMetric(r.Freq.Millis(r.Thread[28].Max()), "t28-worst-ms")
				b.ReportMetric(r.Freq.Millis(r.Thread[24].Max()), "t24-worst-ms")
				b.ReportMetric(float64(r.Samples), "samples")
			})
		}
	}
}

// BenchmarkTable3WorstCase regenerates the Table 3 pipeline for Windows 98
// under the games stress (the class with the paper's worst numbers).
func BenchmarkTable3WorstCase(b *testing.B) {
	var wc [3]float64
	for i := 0; i < b.N; i++ {
		r := core.Run(core.RunConfig{
			OS:       ospersona.Win98,
			Workload: workload.Games,
			Duration: benchDur,
			Seed:     uint64(i + 1),
		})
		wc = r.WorstCaseRow(r.HwToThread[r.HighPriority()])
	}
	b.ReportMetric(wc[0], "hourly-ms")
	b.ReportMetric(wc[2], "weekly-ms")
}

// BenchmarkSec42Throughput regenerates the §4.2 macrobenchmark comparison.
func BenchmarkSec42Throughput(b *testing.B) {
	var delta float64
	for i := 0; i < b.N; i++ {
		nt := core.RunThroughput(ospersona.NT4, 60, uint64(i+1))
		w98 := core.RunThroughput(ospersona.Win98, 60, uint64(i+1))
		delta = core.ThroughputDelta(nt, w98)
	}
	b.ReportMetric(delta*100, "score-delta-pct")
}

// BenchmarkFigure5VirusScanner regenerates the Figure 5 comparison and
// reports the 15+ms thread-latency rate inflation.
func BenchmarkFigure5VirusScanner(b *testing.B) {
	var clean, dirty float64
	for i := 0; i < b.N; i++ {
		seed := uint64(i + 1)
		rc := core.Run(core.RunConfig{OS: ospersona.Win98, Workload: workload.Business,
			Duration: benchDur, Seed: seed})
		rd := core.Run(core.RunConfig{OS: ospersona.Win98, Workload: workload.Business,
			Duration: benchDur, Seed: seed, VirusScanner: true})
		at := rd.Freq.FromMillis(15)
		clean = rc.Thread[24].CCDF(at)
		dirty = rd.Thread[24].CCDF(at)
	}
	b.ReportMetric(dirty, "scanner-p16ms")
	b.ReportMetric(clean, "clean-p16ms")
}

// BenchmarkTable4CauseTool regenerates the Table 4 episode captures.
func BenchmarkTable4CauseTool(b *testing.B) {
	var episodes int
	for i := 0; i < b.N; i++ {
		r := core.Run(core.RunConfig{
			OS:             ospersona.Win98,
			Workload:       workload.Business,
			Duration:       benchDur,
			Seed:           uint64(i + 1),
			SoundScheme:    true,
			CauseAnalysis:  true,
			CauseThreshold: 6 * time.Millisecond,
		})
		episodes = len(r.Episodes)
	}
	b.ReportMetric(float64(episodes), "episodes")
}

// mttfBench runs one Figure 6/7 curve and reports the MTTF at 12 ms of
// buffering (the paper's worked example).
func mttfBench(b *testing.B, modality modem.Modality) {
	b.Helper()
	var at12 float64
	for i := 0; i < b.N; i++ {
		r := core.Run(core.RunConfig{
			OS:       ospersona.Win98,
			Workload: workload.Games,
			Duration: benchDur,
			Seed:     uint64(i + 1),
		})
		var h *stats.Histogram
		if modality == modem.DPCBased {
			h = r.DpcInt
		} else {
			h = r.HwToThread[r.HighPriority()]
		}
		pts := mttf.Sweep(h, r.UsageObserved(), 6, 0.25, 8)
		at12 = pts[1].MTTFSeconds // n=3: 12 ms of buffering
	}
	b.ReportMetric(at12, "mttf-at-12ms-s")
}

// BenchmarkFigure6MTTFDpc regenerates Figure 6 (DPC-based datapump).
func BenchmarkFigure6MTTFDpc(b *testing.B) { mttfBench(b, modem.DPCBased) }

// BenchmarkFigure7MTTFThread regenerates Figure 7 (thread-based datapump).
func BenchmarkFigure7MTTFThread(b *testing.B) { mttfBench(b, modem.ThreadBased) }

// BenchmarkSec52Schedulability regenerates the §5.2 pseudo-worst-case
// schedulability pipeline.
func BenchmarkSec52Schedulability(b *testing.B) {
	var blockMS float64
	var ok bool
	for i := 0; i < b.N; i++ {
		r := core.Run(core.RunConfig{
			OS:       ospersona.Win98,
			Workload: workload.Games,
			Duration: benchDur,
			Seed:     uint64(i + 1),
		})
		h := r.HwToThread[r.HighPriority()]
		block := rma.PseudoWorstCase(h, r.UsageObserved(), r.Freq.Cycles(time.Hour))
		blockMS = r.Freq.Millis(block)
		tasks := []rma.Task{{
			Name: "softmodem", Period: r.Freq.FromMillis(16),
			Compute: r.Freq.FromMillis(4), Blocking: block,
		}}
		if err := tasks[0].Validate(); err != nil {
			ok = false
			continue
		}
		_, ok, _ = rma.Analyze(tasks)
	}
	b.ReportMetric(blockMS, "design-latency-ms")
	if ok {
		b.ReportMetric(1, "schedulable")
	} else {
		b.ReportMetric(0, "schedulable")
	}
}

// --- ablation benches (DESIGN.md §7) ---------------------------------------

// BenchmarkAblationWorkerPriority moves the kernel work-item worker out of
// the real-time band: the paper's explanation predicts the NT RT-24 vs
// RT-28 gap should collapse — and it does.
func BenchmarkAblationWorkerPriority(b *testing.B) {
	for _, prio := range []int{kernel.RealtimeDefault, kernel.NormalPriority} {
		prio := prio
		name := "worker-rt-default"
		if prio == kernel.NormalPriority {
			name = "worker-normal"
		}
		b.Run(name, func(b *testing.B) {
			var gap float64
			for i := 0; i < b.N; i++ {
				r := core.Run(core.RunConfig{
					OS:             ospersona.NT4,
					Workload:       workload.Business,
					Duration:       benchDur,
					Seed:           uint64(i + 1),
					WorkerPriority: prio,
				})
				t28 := r.Freq.Millis(r.Thread[28].Max())
				t24 := r.Freq.Millis(r.Thread[24].Max())
				if t28 > 0 {
					gap = t24 / t28
				}
			}
			b.ReportMetric(gap, "t24/t28-worst-ratio")
		})
	}
}

// BenchmarkAblationPITFrequency compares the tools' 1 kHz PIT programming
// against the 67-100 Hz machine default (§2.2): the slow clock collects an
// order of magnitude fewer samples and quantizes timer firing to ~15 ms.
func BenchmarkAblationPITFrequency(b *testing.B) {
	for _, cfg := range []struct {
		name   string
		period time.Duration
	}{
		{"pit-1kHz", time.Millisecond},
		{"pit-67Hz", 15 * time.Millisecond},
	} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			var samples float64
			for i := 0; i < b.N; i++ {
				r := core.Run(core.RunConfig{
					OS:        ospersona.NT4,
					Workload:  workload.Business,
					Duration:  benchDur,
					Seed:      uint64(i + 1),
					PITPeriod: cfg.period,
				})
				samples = float64(r.Samples)
			}
			b.ReportMetric(samples, "samples")
		})
	}
}

// BenchmarkAblationMTTFValidation cross-checks the §5 analytic MTTF against
// a direct datapump simulation under the same stress (the "strictly
// accurate only for double buffering" approximation).
func BenchmarkAblationMTTFValidation(b *testing.B) {
	var direct, analytic float64
	for i := 0; i < b.N; i++ {
		seed := uint64(i + 1)
		r := core.Run(core.RunConfig{OS: ospersona.Win98, Workload: workload.Games,
			Duration: benchDur, Seed: seed})
		analytic = mttf.Analytic(r.DpcInt, r.UsageObserved(), 4, 2, 1).MTTFSeconds

		m := ospersona.Build(ospersona.Win98, ospersona.Options{Seed: seed + 7})
		d := modem.Attach(m.Kernel, modem.Config{CycleMS: 4, Buffers: 2, Modality: modem.DPCBased})
		gen := workload.New(workload.Games, m)
		gen.Start()
		m.Eng.After(m.MS(50), func(sim.Time) { d.Start() })
		m.RunFor(m.Freq().Cycles(benchDur))
		if s, ok := d.MTTFSeconds(); ok {
			direct = s
		} else {
			direct = m.Freq().Duration(m.Freq().Cycles(benchDur)).Seconds()
		}
		m.Shutdown()
	}
	b.ReportMetric(analytic, "analytic-mttf-s")
	b.ReportMetric(direct, "direct-mttf-s")
}

// --- substrate microbenchmarks ----------------------------------------------

// BenchmarkEngineEventThroughput measures raw discrete-event dispatch.
func BenchmarkEngineEventThroughput(b *testing.B) {
	eng := sim.NewEngine(1)
	var tick func(sim.Time)
	n := 0
	tick = func(sim.Time) {
		n++
		eng.After(100, tick)
	}
	eng.After(100, tick)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}

// BenchmarkKernelContextSwitch measures a full simulated wait/wake/switch
// round trip between two threads.
func BenchmarkKernelContextSwitch(b *testing.B) {
	eng := sim.NewEngine(1)
	c := cpu.New(eng, sim.DefaultFreq)
	k := kernel.New(eng, c, kernel.Config{Name: "bench"})
	k.Boot(32, 300_000)
	defer k.Shutdown()
	ping := k.NewEvent("ping", kernel.SynchronizationEvent)
	pong := k.NewEvent("pong", kernel.SynchronizationEvent)
	k.CreateThread("a", 20, func(tc *kernel.ThreadContext) {
		for {
			tc.Wait(ping)
			tc.SetEvent(pong)
		}
	})
	k.CreateThread("b", 20, func(tc *kernel.ThreadContext) {
		for {
			tc.SetEvent(ping)
			tc.Wait(pong)
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}

// BenchmarkEngineScheduleCancel measures the schedule/cancel churn path: a
// rotating window of pending timers, as armed and disarmed by every device
// model and wait timeout. Its 64 pending events are 6-8× the queue most
// simulated machines keep (at most 8-9 right after a schedule in a Win98
// or NT4 machine-minute, 9-10 in the business, workstation and games cells
// with the latency tool attached, 10 under the NIC storm); only the web
// cells' NIC bursts go deeper, to 66 within five simulated minutes and 101
// within thirty. It is the one benchmark the sorted queue slowed: each op
// cancels an event from the middle of the queue and re-adds it at the same
// rank, and both shift every event that fires before it, about 32 slots
// each on average, where the heap sifted through three levels. No
// simulated machine makes that pattern; BenchmarkEngineQueueDepth
// (internal/sim) and BenchmarkMachineMinute are the realistic mixes.
func BenchmarkEngineScheduleCancel(b *testing.B) {
	eng := sim.NewEngine(1)
	nop := func(sim.Time) {}
	const depth = 64
	var evs [depth]*sim.Event
	for i := range evs {
		evs[i] = eng.After(sim.Cycles(1000+i), nop)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % depth
		eng.Cancel(evs[j])
		evs[j] = eng.After(sim.Cycles(1000+j), nop)
	}
}

// BenchmarkHistogramAdd measures the latency-recording hot path in
// isolation: samples are drawn ahead of time so the Pareto draw (dominated
// by math.Pow) does not mask the bucketing cost being measured.
func BenchmarkHistogramAdd(b *testing.B) {
	h := stats.NewHistogram(sim.DefaultFreq)
	r := sim.NewRNG(1)
	d := sim.Pareto{Xm: 1000, Alpha: 1.3, Cap: 1 << 30}
	const mask = 1<<16 - 1
	draws := make([]sim.Cycles, mask+1)
	for i := range draws {
		draws[i] = d.Draw(r)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Add(draws[i&mask])
	}
}

// BenchmarkMachineMinute measures full-machine simulation speed: virtual
// seconds simulated per wall second under the games stress.
func BenchmarkMachineMinute(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := ospersona.Build(ospersona.Win98, ospersona.Options{Seed: uint64(i + 1)})
		gen := workload.New(workload.Games, m)
		gen.Start()
		m.RunFor(m.Freq().Cycles(time.Minute))
		m.Shutdown()
	}
}

// BenchmarkAblationPIODisk disables the Table 2 DMA configuration ("a key
// point, easily overlooked"): programmed-I/O transfers execute at
// DISPATCH_LEVEL in the disk driver, and the DPC-interrupt latency tail
// explodes even on NT.
func BenchmarkAblationPIODisk(b *testing.B) {
	for _, cfg := range []struct {
		name string
		pio  bool
	}{
		{"dma", false},
		{"pio", true},
	} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			var worst float64
			for i := 0; i < b.N; i++ {
				r := core.Run(core.RunConfig{
					OS:       ospersona.NT4,
					Workload: workload.Workstation,
					Duration: benchDur,
					Seed:     uint64(i + 1),
					PIODisk:  cfg.pio,
				})
				worst = r.Freq.Millis(r.DpcIntOracle.Max())
			}
			b.ReportMetric(worst, "dpcint-worst-ms")
		})
	}
}

// BenchmarkSec12Baselines runs the two §1.2 baseline methodologies (the
// lmbench-style suite and the Endo-style interactive measurement) and
// reports the numbers that fail to separate the systems.
func BenchmarkSec12Baselines(b *testing.B) {
	var ctxNT, ctxW98, within float64
	for i := 0; i < b.N; i++ {
		seed := uint64(i + 1)
		ctxNT = microbench.Run(ospersona.NT4, seed, 300).ContextSwitch.MeanUS
		ctxW98 = microbench.Run(ospersona.Win98, seed, 300).ContextSwitch.MeanUS
		ir := interactive.Run(interactive.Config{
			OS: ospersona.Win98, Workload: workload.Business,
			Duration: benchDur, Seed: seed,
		})
		within = ir.WithinMS(150)
	}
	b.ReportMetric(ctxNT, "nt-ctxswitch-us")
	b.ReportMetric(ctxW98, "w98-ctxswitch-us")
	b.ReportMetric(within*100, "interactive-within-150ms-pct")
}

// BenchmarkCampaignMatrix runs the full Figure 4 measurement matrix (2 OSes
// × 4 workloads) through the parallel campaign runner at GOMAXPROCS
// workers — the cell fan-out cmd/reproduce uses — and reports aggregate
// throughput. Results are byte-identical to a serial run by construction.
func BenchmarkCampaignMatrix(b *testing.B) {
	oses := []ospersona.OS{ospersona.NT4, ospersona.Win98}
	var samples uint64
	for i := 0; i < b.N; i++ {
		run := campaign.New(campaign.Options{BaseSeed: uint64(i + 1)})
		byOS, err := run.RunMatrix(oses, workload.Classes, "bench",
			core.RunConfig{Duration: benchDur}, 1)
		if err != nil {
			b.Fatal(err)
		}
		samples = 0
		for _, byClass := range byOS {
			for _, r := range byClass {
				samples += r.Samples
			}
		}
	}
	b.ReportMetric(float64(samples), "matrix-samples")
}
