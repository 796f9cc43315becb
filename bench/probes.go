package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wdmlat/internal/campaign/store"
	"wdmlat/internal/core"
	"wdmlat/internal/cpu"
	"wdmlat/internal/kernel"
	"wdmlat/internal/latdriver"
	"wdmlat/internal/ospersona"
	"wdmlat/internal/server"
	"wdmlat/internal/sim"
	"wdmlat/internal/workload"
)

// Probes time one layer in isolation, in the traced child after its
// workload has finished, so nothing else runs beside them.

// probeStormPPS is the storm probe cell's offered rate: below every
// persona's knee, so the NIC counts describe a sustained stream.
const probeStormPPS = 16384

// machineProbe replays core.Run's public call sequence — ospersona.Build,
// latdriver.Install and Start, warm-up, the stress workload, collection —
// on one 30 s cell per OS × class and one 2 s storm cell per OS, reading
// the engine's event count, the kernel's counters and the NIC's between
// the calls. Each cell's sample count must equal core.Run's on the same
// config, or the probe is not measuring what core.Run does.
func machineProbe(seed uint64) (metrics, []string) {
	var cells []core.RunConfig
	for _, o := range personas {
		for _, c := range workload.Classes {
			cells = append(cells, core.RunConfig{OS: o, Workload: c, Duration: 30 * time.Second, Seed: seed})
		}
	}
	for _, o := range personas {
		cells = append(cells, core.RunConfig{OS: o, Idle: true, StormPPS: probeStormPPS, Duration: 2 * time.Second, Seed: seed})
	}

	var problems []string
	var events, samples, switches, interrupts, dpcs, delivered, asserts, dropped, mallocs uint64
	var simSec float64
	var busy time.Duration
	var ms0, ms1 runtime.MemStats
	for _, cfg := range cells {
		cfg = cfg.Normalized()
		m := ospersona.Build(cfg.OS, ospersona.Options{Seed: cfg.Seed})
		if cfg.StormPPS > 0 {
			m.EnableStormAccounting()
		}
		tool, err := latdriver.Install(m.Kernel, m.PIT, latdriver.Options{HookTimerISR: m.Profile.SupportsLegacyTimerHook})
		if err != nil {
			problems = append(problems, fmt.Sprintf("machine probe: %v", err))
			m.Shutdown()
			continue
		}
		if err := tool.Start(); err != nil {
			problems = append(problems, fmt.Sprintf("machine probe: %v", err))
			m.Shutdown()
			continue
		}
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		m.RunFor(m.Freq().Cycles(cfg.Warmup))
		var gen *workload.Generator
		if !cfg.Idle {
			gen = workload.New(cfg.Workload, m)
			gen.Start()
		}
		var storm *workload.Storm
		if cfg.StormPPS > 0 {
			storm = workload.NewStorm(m, workload.StormConfig{PPS: cfg.StormPPS, Bytes: cfg.StormBytes})
			storm.Start()
		}
		m.RunFor(m.Freq().Cycles(cfg.Duration))
		busy += time.Since(start)
		runtime.ReadMemStats(&ms1)
		mallocs += ms1.Mallocs - ms0.Mallocs
		if gen != nil {
			gen.Stop()
		}
		if storm != nil {
			storm.Stop()
		}
		tool.Stop()

		events += m.Eng.Fired()
		k := m.Kernel.Counters()
		switches += k.Switches
		interrupts += k.Interrupts
		dpcs += k.DPCs
		delivered += m.NIC.Delivered()
		asserts += m.NIC.Asserts()
		dropped += m.NIC.Dropped()
		samples += tool.Samples()
		simSec += (cfg.Warmup + cfg.Duration).Seconds()
		got := tool.Samples()
		m.Shutdown()
		if want := core.Run(cfg).Samples; got != want {
			problems = append(problems, fmt.Sprintf("machine probe %v: %d samples, core.Run takes %d", cfg.OS, got, want))
		}
	}
	out := metrics{
		"sim.ns_per_event":            float64(busy.Nanoseconds()) / float64(events),
		"sim.allocs_per_event":        float64(mallocs) / float64(events),
		"sim.events_per_sim_s":        float64(events) / simSec,
		"kernel.switches_per_sim_s":   float64(switches) / simSec,
		"kernel.interrupts_per_sim_s": float64(interrupts) / simSec,
		"kernel.dpcs_per_sim_s":       float64(dpcs) / simSec,
		"hw.nic_packets_per_sim_s":    float64(delivered) / simSec,
		"hw.nic_pkts_per_assert":      float64(delivered) / float64(max(asserts, 1)),
		"hw.nic_drop_frac":            float64(dropped) / float64(max(delivered+dropped, 1)),
		"latdriver.samples_per_sim_s": float64(samples) / simSec,
	}
	return out, problems
}

// handoffProbe times the simulated wait/wake/switch round trip between two
// kernel threads, as BenchmarkKernelContextSwitch does: the median of
// batches of engine steps, in ns per step.
func handoffProbe() float64 {
	eng := sim.NewEngine(1)
	k := kernel.New(eng, cpu.New(eng, sim.DefaultFreq), kernel.Config{Name: "probe"})
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
	const batch = 5000
	return timeBatches(batch, 100*time.Millisecond, func() {
		for i := 0; i < batch; i++ {
			eng.Step()
		}
	}) * 1e3
}

// timeBatches runs fn (which does n operations) for about budget and
// returns the median time per operation in microseconds.
func timeBatches(n int, budget time.Duration, fn func()) float64 {
	var per []float64
	deadline := time.Now().Add(budget)
	for len(per) < 5 || time.Now().Before(deadline) {
		start := time.Now()
		fn()
		per = append(per, float64(time.Since(start).Nanoseconds())/1e3/float64(n))
	}
	return median(per)
}

// codecProbe times the exact result codec on one of the workload's own
// results.
func codecProbe(res *core.Result) (metrics, error) {
	var enc bytes.Buffer
	if err := core.EncodeResult(&enc, res); err != nil {
		return nil, err
	}
	data := enc.Bytes()
	var err error
	encode := timeBatches(20, 100*time.Millisecond, func() {
		for i := 0; i < 20; i++ {
			var b bytes.Buffer
			if e := core.EncodeResult(&b, res); e != nil {
				err = e
			}
		}
	})
	decode := timeBatches(20, 100*time.Millisecond, func() {
		for i := 0; i < 20; i++ {
			if _, e := core.DecodeResult(bytes.NewReader(data)); e != nil {
				err = e
			}
		}
	})
	return metrics{"core.encode_us": encode, "core.decode_us": decode, "core.result_kb": float64(len(data)) / 1024}, err
}

// storeProbe times checkpoint Save (atomic write and fsync) and Load of the
// workload's result on a fresh store, and Journal.Merged appends on a
// fresh journal.
func storeProbe(res *core.Result, dir string) (metrics, error) {
	st, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		return nil, err
	}
	const n = 20
	var saves, loads []float64
	for i := 0; i < n; i++ {
		fp := store.Fingerprint(uint64(i+1), fmt.Sprintf("probe/%d", i), res.Config)
		start := time.Now()
		if err := st.Save(fp, res); err != nil {
			return nil, err
		}
		saves = append(saves, float64(time.Since(start).Microseconds()))
		start = time.Now()
		if _, err := st.Load(fp); err != nil {
			return nil, err
		}
		loads = append(loads, float64(time.Since(start).Microseconds()))
	}
	j, err := server.OpenJournal(filepath.Join(dir, "probe.journal"))
	if err != nil {
		return nil, err
	}
	var appends []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		j.Merged(fmt.Sprintf("%064d", i))
		appends = append(appends, float64(time.Since(start).Microseconds()))
	}
	if err := j.Close(); err != nil {
		return nil, err
	}
	return metrics{"store.save_us": median(saves), "store.load_us": median(loads), "server.journal_append_us": median(appends)}, nil
}

// runtimeWatch samples the Go runtime while a traced workload runs.
type runtimeWatch struct {
	alloc0 uint64
	peak   atomic.Int64
	stop   chan struct{}
	done   sync.WaitGroup
}

func watchRuntime() *runtimeWatch {
	w := &runtimeWatch{stop: make(chan struct{})}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.alloc0 = ms.TotalAlloc
	w.done.Add(1)
	go func() {
		defer w.done.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			if n := int64(runtime.NumGoroutine()); n > w.peak.Load() {
				w.peak.Store(n)
			}
			select {
			case <-w.stop:
				return
			case <-t.C:
			}
		}
	}()
	return w
}

func (w *runtimeWatch) finish() metrics {
	close(w.stop)
	w.done.Wait()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return metrics{
		"runtime.gc_cpu_frac":     ms.GCCPUFraction,
		"runtime.alloc_mb":        float64(ms.TotalAlloc-w.alloc0) / (1 << 20),
		"runtime.goroutines_peak": float64(w.peak.Load()),
	}
}

// addProbes runs every probe for a traced child, after its workload, into
// layers; cell is one of the workload's own results. A probe that cannot
// measure what it should fails the run.
func addProbes(run *runResult, layers metrics, seed uint64, cell *core.Result, dir string) {
	m, problems := machineProbe(seed)
	for _, p := range problems {
		run.problem("%s", p)
	}
	layers.add(m)
	layers["kernel.handoff_ns"] = handoffProbe()
	if cell == nil {
		run.problem("no cell result to probe the codec and store with")
		return
	}
	for _, probe := range []func() (metrics, error){
		func() (metrics, error) { return codecProbe(cell) },
		func() (metrics, error) { return storeProbe(cell, dir) },
	} {
		m, err := probe()
		if err != nil {
			run.problem("%v", err)
			continue
		}
		layers.add(m)
	}
}
