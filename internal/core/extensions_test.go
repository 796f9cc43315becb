package core_test

import (
	"strings"
	"testing"
	"time"

	"wdmlat/internal/campaign"
	"wdmlat/internal/core"
	"wdmlat/internal/modem"
	"wdmlat/internal/ospersona"
	"wdmlat/internal/sim"
	"wdmlat/internal/workload"
)

// TestCauseNMIWorksOnNT: performance-counter NMI sampling (§6.1) needs no
// legacy IDT patching, so the cause tool becomes usable on NT — and it
// attributes the RT-24 episodes to the work-item worker.
func TestCauseNMIWorksOnNT(t *testing.T) {
	r := run(t, core.RunConfig{
		OS:             ospersona.NT4,
		Workload:       workload.Business,
		Seed:           31,
		Duration:       2 * time.Minute,
		CauseAnalysis:  true,
		CauseNMI:       true,
		CauseWalkStack: true,
		CauseThreshold: 4 * time.Millisecond,
	})
	if len(r.Episodes) == 0 {
		t.Fatal("NMI cause tool captured nothing on NT")
	}
	var first strings.Builder
	if err := r.Episodes[0].Format(&first); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d episodes; the first:\n%s", len(r.Episodes), first.String())
	sawWorker := false
	for _, ep := range r.Episodes {
		for _, fc := range ep.Analysis() {
			if fc.Frame.Module == "ExWorkerThread" {
				sawWorker = true
			}
		}
	}
	if !sawWorker {
		t.Fatal("episodes did not attribute NT RT-24 latency to the work-item worker")
	}
}

// TestWin2000BetaBehavesLikeNT: the §6.1 monitoring target keeps NT's
// architecture, so its real-time behaviour must sit with NT 4.0, an order
// of magnitude inside Windows 98's.
func TestWin2000BetaBehavesLikeNT(t *testing.T) {
	w2k := run(t, core.RunConfig{OS: ospersona.Win2000Beta, Workload: workload.Games, Seed: 32, Duration: time.Minute})
	w98 := run(t, core.RunConfig{OS: ospersona.Win98, Workload: workload.Games, Seed: 32, Duration: time.Minute})

	t28 := w2k.Freq.Millis(w2k.Thread[28].Max())
	t24 := w2k.Freq.Millis(w2k.Thread[24].Max())
	w98t28 := w98.Freq.Millis(w98.Thread[28].Max())

	if t28 >= 3 {
		t.Fatalf("Win2000 Beta RT-28 worst %.2f ms: should stay under the modem slack like NT", t28)
	}
	if t24 < 3*t28 {
		t.Fatalf("Win2000 Beta RT-24 (%.2f) vs RT-28 (%.2f): worker effect missing", t24, t28)
	}
	if w98t28 < 4*t28 {
		t.Fatalf("Win98 RT-28 (%.2f) vs Win2000 Beta (%.2f): NT-family advantage missing", w98t28, t28)
	}
	if w2k.OSName != "Windows 2000 Beta 2 (NT 5.0)" {
		t.Fatalf("OS name = %q", w2k.OSName)
	}
}

// TestRunMergedPoolsDistributions: three replicas pooled with Result.Merge,
// as campaign.Runner.Merged pools them, accumulate samples and span, and
// the pooled maximum dominates a single run's.
func TestRunMergedPoolsDistributions(t *testing.T) {
	cfg := core.RunConfig{OS: ospersona.Win98, Workload: workload.Games, Seed: 33, Duration: 20 * time.Second}
	single := core.Run(cfg)
	merged := core.Run(cfg)
	for i := 1; i < 3; i++ {
		replica := cfg
		replica.Seed = sim.DeriveSeed(cfg.Seed, campaign.ReplicaKey("pool", i))
		merged.Merge(core.Run(replica))
	}
	if merged.Samples <= 2*single.Samples {
		t.Fatalf("merged samples %d vs single %d", merged.Samples, single.Samples)
	}
	if merged.Observed <= 2*single.Observed {
		t.Fatalf("merged span %d vs single %d", merged.Observed, single.Observed)
	}
	if merged.Thread[28].Max() < single.Thread[28].Max() {
		t.Fatal("pooled max below the first replica's max")
	}
	if merged.Thread[28].N() != merged.Samples {
		// Warmup samples are included in both; exact equality isn't
		// guaranteed, but the histogram must carry all replicas.
		if merged.Thread[28].N() < uint64(float64(merged.Samples)*0.9) {
			t.Fatalf("pooled histogram too small: %d vs %d samples", merged.Thread[28].N(), merged.Samples)
		}
	}
}

// TestADSLFeasibility exercises Table 1's tightest row: ADSL tolerates only
// 4-10 ms. A DPC-based ADSL datapump (3 ms cycles, triple buffered = 6 ms
// tolerance) survives on NT under the games stress; the identical pump's
// thread-based variant on Windows 98 underruns — the §1 observation that
// the most processor-intensive application has the least tolerance, made
// operational.
func TestADSLFeasibility(t *testing.T) {
	run := func(osSel ospersona.OS, modality modem.Modality) uint64 {
		m := ospersona.Build(osSel, ospersona.Options{Seed: 17})
		defer m.Shutdown()
		d := modem.Attach(m.Kernel, modem.Config{
			CycleMS: 3, Buffers: 3, Modality: modality,
		})
		m.RunFor(m.Freq().Cycles(200 * time.Millisecond))
		gen := workload.New(workload.Games, m)
		gen.Start()
		m.Eng.After(m.MS(50), func(sim.Time) { d.Start() })
		m.RunFor(m.Freq().Cycles(2 * time.Minute))
		return d.Underruns()
	}
	if u := run(ospersona.NT4, modem.DPCBased); u != 0 {
		t.Fatalf("NT DPC-based ADSL pump underran %d times", u)
	}
	if u := run(ospersona.Win98, modem.ThreadBased); u == 0 {
		t.Fatal("Win98 thread-based ADSL pump should underrun under games")
	}
}
