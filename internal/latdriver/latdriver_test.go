package latdriver_test

import (
	"testing"

	"wdmlat/internal/cpu"
	"wdmlat/internal/hw"
	"wdmlat/internal/kernel"
	"wdmlat/internal/latdriver"
	"wdmlat/internal/sim"
)

const (
	clockVector = 32
	tickPeriod  = 300_000 // 1 kHz at 300 MHz
)

type machine struct {
	eng *sim.Engine
	cpu *cpu.CPU
	k   *kernel.Kernel
	pit *hw.PIT
}

func newMachine(t *testing.T, seed uint64) *machine {
	t.Helper()
	eng := sim.NewEngine(seed)
	c := cpu.New(eng, sim.DefaultFreq)
	k := kernel.New(eng, c, kernel.Config{
		Name:          "test",
		IsrEntry:      sim.Constant(100),
		IsrExit:       sim.Constant(50),
		DpcDispatch:   sim.Constant(30),
		ClockTick:     sim.Constant(40),
		TimerFire:     sim.Constant(20),
		ContextSwitch: sim.Constant(200),
		Quantum:       6_000_000,
	})
	k.Boot(clockVector, tickPeriod)
	pit := hw.NewPIT(eng, k.InterruptForVector(clockVector))
	pit.Program(tickPeriod)
	t.Cleanup(k.Shutdown)
	return &machine{eng: eng, cpu: c, k: k, pit: pit}
}

func installAndRun(t *testing.T, m *machine, opts latdriver.Options, d sim.Cycles) *latdriver.Tool {
	t.Helper()
	tool, err := latdriver.Install(m.k, m.pit, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := tool.Start(); err != nil {
		t.Fatal(err)
	}
	m.eng.RunUntil(sim.Time(d))
	tool.Stop()
	return tool
}

func TestToolCollectsSamplesAtExpectedRate(t *testing.T) {
	m := newMachine(t, 1)
	// 1 second of virtual time; the read re-arms just after a tick, so a
	// 3-tick delay lands on the 4th tick: ~250 cycles/s.
	tool := installAndRun(t, m, latdriver.Options{}, 300_000_000)
	if tool.Samples() < 240 || tool.Samples() > 260 {
		t.Fatalf("samples = %d, want ~250", tool.Samples())
	}
	if n := tool.DpcInterruptLatency().N(); n < tool.Samples() {
		t.Fatalf("DPC-int histogram has %d samples, want >= %d", n, tool.Samples())
	}
	for _, p := range []int{tool.HighPriority(), tool.MediumPriority()} {
		if n := tool.ThreadLatency(p).N(); n < tool.Samples() {
			t.Fatalf("thread %d histogram has %d samples", p, n)
		}
	}
}

func TestEstimateWithinOnePitPeriodOfOracle(t *testing.T) {
	m := newMachine(t, 2)
	tool := installAndRun(t, m, latdriver.Options{}, 300_000_000)
	est := tool.DpcInterruptLatency()
	orc := tool.DpcInterruptLatencyOracle()
	if est.N() == 0 || orc.N() == 0 {
		t.Fatal("no samples")
	}
	// est = oracle + phase, phase in [0, tick): mean estimate exceeds mean
	// oracle by less than one tick, and every estimate >= its oracle floor.
	diff := est.Mean() - orc.Mean()
	if diff < 0 || diff > tickPeriod {
		t.Fatalf("mean estimation bias %v cycles, want within [0, %d)", diff, tickPeriod)
	}
	if est.Max() > orc.Max()+tickPeriod {
		t.Fatalf("estimate max %d exceeds oracle max %d + one tick", est.Max(), orc.Max())
	}
}

func TestIdleSystemLatenciesAreSmall(t *testing.T) {
	m := newMachine(t, 3)
	tool := installAndRun(t, m, latdriver.Options{}, 300_000_000)
	freq := sim.DefaultFreq
	// Oracle DPC-interrupt latency on an idle machine: ISR entry + tick
	// processing + DPC dispatch — well under 0.1 ms.
	if ms := freq.Millis(tool.DpcInterruptLatencyOracle().Max()); ms > 0.1 {
		t.Fatalf("idle oracle DPC-int latency max = %v ms", ms)
	}
	// Thread latencies: a context switch or two.
	for _, p := range []int{28, 24} {
		if ms := freq.Millis(tool.ThreadLatency(p).Max()); ms > 0.1 {
			t.Fatalf("idle thread %d latency max = %v ms", p, ms)
		}
	}
}

func TestHighPriorityThreadNoSlowerThanMedium(t *testing.T) {
	m := newMachine(t, 4)
	// Add same-priority interference: a priority-24 spinner that hogs its
	// level, so the medium (24) measurement thread round-robins behind it
	// while the high (28) thread preempts. The spinner starts after the
	// tool's threads have raised their priorities (the paper starts its
	// tools before launching the stress load, §3.1.1).
	m.eng.At(30_000_000, func(sim.Time) {
		m.k.CreateThread("spinner", 24, func(tc *kernel.ThreadContext) {
			for {
				tc.Exec(50_000_000)
			}
		})
	})
	tool := installAndRun(t, m, latdriver.Options{}, 2*300_000_000)
	hi := tool.ThreadLatency(28)
	med := tool.ThreadLatency(24)
	if hi.N() == 0 || med.N() == 0 {
		t.Fatal("missing samples")
	}
	if !(hi.Mean() < med.Mean()) {
		t.Fatalf("hi mean %v >= med mean %v under same-priority load", hi.Mean(), med.Mean())
	}
	if med.Max() < 10*hi.Max() {
		t.Fatalf("med max %d vs hi max %d: expected order-of-magnitude gap", med.Max(), hi.Max())
	}
}

func TestLegacyHookSplitsLatency(t *testing.T) {
	m := newMachine(t, 5)
	tool := installAndRun(t, m, latdriver.Options{HookTimerISR: true}, 300_000_000)
	intLat := tool.InterruptLatency()
	dpcLat := tool.DpcLatency()
	if intLat == nil || dpcLat == nil {
		t.Fatal("hook mode should populate split histograms")
	}
	if intLat.N() == 0 || dpcLat.N() == 0 {
		t.Fatal("no split samples")
	}
	// Decomposition: interrupt latency + DPC latency ≈ DPC-interrupt
	// latency (within bucket resolution and tool costs).
	sum := intLat.Mean() + dpcLat.Mean()
	whole := tool.DpcInterruptLatency().Mean()
	if sum < 0.9*whole || sum > 1.1*whole {
		t.Fatalf("int(%v) + dpc(%v) = %v, want ≈ dpc-int(%v)", intLat.Mean(), dpcLat.Mean(), sum, whole)
	}
	if tool.IsrMisses() > tool.Samples()/100 {
		t.Fatalf("isr misses = %d of %d", tool.IsrMisses(), tool.Samples())
	}
}

func TestNoHookModeLeavesSplitNil(t *testing.T) {
	m := newMachine(t, 6)
	tool := installAndRun(t, m, latdriver.Options{}, 30_000_000)
	if tool.InterruptLatency() != nil || tool.DpcLatency() != nil {
		t.Fatal("split histograms must be nil without the legacy hook")
	}
}

func TestMaskedWindowShowsUpInInterruptLatency(t *testing.T) {
	m := newMachine(t, 7)
	// Inject 2 ms interrupt-masked windows around every 10th tick.
	n := 0
	var inject func(sim.Time)
	inject = func(sim.Time) {
		n++
		if n%10 == 0 {
			m.k.InjectEpisode(kernel.MaskInterrupts, 600_000, "VXD", "_Cli")
		}
		m.eng.After(tickPeriod, inject)
	}
	m.eng.After(tickPeriod/2, inject)

	tool := installAndRun(t, m, latdriver.Options{HookTimerISR: true}, 600_000_000)
	freq := sim.DefaultFreq
	if ms := freq.Millis(tool.InterruptLatency().Max()); ms < 0.5 {
		t.Fatalf("interrupt latency max = %v ms: masked windows invisible", ms)
	}
}

func TestSchedLockShowsUpInThreadNotDpcLatency(t *testing.T) {
	m := newMachine(t, 8)
	// Frequent 10 ms scheduler-locked episodes.
	var inject func(sim.Time)
	inject = func(sim.Time) {
		m.k.InjectEpisode(kernel.LockScheduler, 3_000_000, "VMM", "_Win16Lock")
		m.eng.After(20*tickPeriod, inject)
	}
	m.eng.After(tickPeriod, inject)

	tool := installAndRun(t, m, latdriver.Options{}, 600_000_000)
	freq := sim.DefaultFreq
	thr := freq.Millis(tool.ThreadLatency(28).Max())
	dpc := freq.Millis(tool.DpcInterruptLatencyOracle().Max())
	if thr < 5 {
		t.Fatalf("thread latency max = %v ms: scheduler locks invisible", thr)
	}
	if dpc > 1 {
		t.Fatalf("DPC-int latency max = %v ms: scheduler locks wrongly delayed DPCs", dpc)
	}
}

func TestStopEndsSampling(t *testing.T) {
	m := newMachine(t, 9)
	tool, err := latdriver.Install(m.k, m.pit, latdriver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tool.Start(); err != nil {
		t.Fatal(err)
	}
	m.eng.RunUntil(30_000_000)
	tool.Stop()
	n := tool.Samples()
	m.eng.RunUntil(300_000_000)
	// At most the in-flight cycle completes after Stop.
	if tool.Samples() > n+1 {
		t.Fatalf("samples kept accumulating after Stop: %d -> %d", n, tool.Samples())
	}
}

func TestDoubleStartFails(t *testing.T) {
	m := newMachine(t, 10)
	tool, err := latdriver.Install(m.k, m.pit, latdriver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tool.Start(); err != nil {
		t.Fatal(err)
	}
	if err := tool.Start(); err == nil {
		t.Fatal("second Start should fail")
	}
}

func TestInvalidPriorityOrdering(t *testing.T) {
	m := newMachine(t, 11)
	_, err := latdriver.Install(m.k, m.pit, latdriver.Options{HighPriority: 20, MediumPriority: 24})
	if err == nil {
		t.Fatal("high <= medium should be rejected")
	}
}

// TestThreadLatencyHookPanicReachesCaller: the measurement threads run on
// the engine's goroutine, so a panic in the OnThreadLatency hook (which
// the cause tool's cells wire up) unwinds to whoever drives the engine —
// where the campaign runner's per-cell recover isolates it — instead of
// killing the process from another goroutine.
func TestThreadLatencyHookPanicReachesCaller(t *testing.T) {
	m := newMachine(t, 1)
	tool, err := latdriver.Install(m.k, m.pit, latdriver.Options{
		OnThreadLatency: func(int, sim.Cycles) { panic("hook failed") },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tool.Start(); err != nil {
		t.Fatal(err)
	}
	var got any
	func() {
		defer func() { got = recover() }()
		m.eng.RunUntil(300_000_000)
	}()
	if got != "hook failed" {
		t.Fatalf("recovered %v from the engine, want the hook's panic", got)
	}
}
