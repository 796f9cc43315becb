package campaign

// Adaptive-replica tests: the stopping rule is a pure function of the
// pooled replica prefix, so an adaptive campaign must pick the same replica
// count — and produce byte-identical pooled encodings — at any worker
// count, through a warm checkpoint store, and after an interrupted run is
// resumed. Convergence itself must respond to the data: tight cells stop
// early, noisy or data-starved cells hit the cap and are counted as
// convergence failures.

import (
	"bytes"
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"wdmlat/internal/campaign/store"
	"wdmlat/internal/core"
	"wdmlat/internal/metrics"
	"wdmlat/internal/ospersona"
	"wdmlat/internal/sim"
	"wdmlat/internal/stats"
	"wdmlat/internal/workload"
)

// adaptiveFake is a convergence-capable stand-in for core.Run: each replica
// contributes a seeded batch of samples whose size and spread depend on the
// workload class, so different logical cells genuinely need different
// replica counts. Tight classes pool enough samples for a p99 DKW bound
// within a few replicas; the noisy class spreads mass across octaves and
// converges late or not at all.
func adaptiveFake(cfg core.RunConfig) *core.Result {
	rng := sim.NewRNG(cfg.Seed)
	perReplica := 5000 + 2000*int(cfg.Workload%2) // class-dependent sample budget
	spread := sim.Cycles(48)                      // sub-bucket at base 1024: converges fast
	if cfg.Workload >= 2 {
		spread = 1 << 18 // many octaves: p99 CI stays wide
	}
	h := stats.NewHistogram(sim.DefaultFreq)
	for i := 0; i < perReplica; i++ {
		h.Add(1024 + rng.Cyclesn(spread))
	}
	thread := func() *stats.Histogram {
		hh := stats.NewHistogram(sim.DefaultFreq)
		for i := 0; i < perReplica; i++ {
			hh.Add(2048 + rng.Cyclesn(spread))
		}
		return hh
	}
	return &core.Result{
		Config:       cfg,
		OSName:       "fake",
		Class:        cfg.Workload,
		Observed:     1 << 20,
		Freq:         sim.DefaultFreq,
		Samples:      uint64(perReplica),
		DpcInt:       h,
		DpcIntOracle: stats.NewHistogram(sim.DefaultFreq),
		Thread:       map[int]*stats.Histogram{28: thread(), 24: thread()},
		HwToThread:   map[int]*stats.Histogram{28: thread(), 24: thread()},
	}
}

// p99Policy is the test policy: one watched quantile whose DKW bound is
// reachable with a few thousand pooled samples.
func p99Policy() stats.Precision {
	return stats.Precision{Quantiles: []float64{0.99}, RelWidth: 0.15, MaxRuns: 16}
}

func encodeOne(t *testing.T, res *core.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := core.EncodeResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestAdaptiveConvergesAndVariesPerCell: a tight cell stops at MinRuns, a
// noisier (but converging) cell takes more replicas, and both report
// Converged with the replica counts visible in telemetry.
func TestAdaptiveConvergesAndVariesPerCell(t *testing.T) {
	reg := metrics.NewRegistry()
	r := New(Options{BaseSeed: 21, Jobs: 4, ExecuteCell: asCell(adaptiveFake), Metrics: reg})

	resA, adA, err := r.MergedAdaptive("tight", core.RunConfig{Workload: workload.Class(1)}, p99Policy())
	if err != nil {
		t.Fatal(err)
	}
	if !adA.Converged {
		t.Fatalf("tight cell did not converge: %+v", adA)
	}
	if adA.Replicas != stats.DefaultMinRuns {
		t.Errorf("tight cell used %d replicas, want to stop at MinRuns=%d", adA.Replicas, stats.DefaultMinRuns)
	}
	if resA.Samples == 0 || int(resA.Samples)%adA.Replicas != 0 {
		t.Errorf("pooled samples %d not a multiple of %d replicas", resA.Samples, adA.Replicas)
	}

	// Smaller per-replica batches: the p99 DKW bound needs more replicas.
	_, adB, err := r.MergedAdaptive("slow", core.RunConfig{Workload: workload.Class(0)}, p99Policy())
	if err != nil {
		t.Fatal(err)
	}
	if !adB.Converged {
		t.Fatalf("slow cell did not converge: %+v", adB)
	}
	if adB.Replicas <= adA.Replicas {
		t.Errorf("replica counts did not vary with the data: tight %d, slow %d", adA.Replicas, adB.Replicas)
	}

	if got := reg.Snapshot().Counters[MetricReplicasAdaptive]; got != uint64(adA.Replicas+adB.Replicas) {
		t.Errorf("%s = %d, want %d", MetricReplicasAdaptive, got, adA.Replicas+adB.Replicas)
	}
	if got := reg.Snapshot().Counters[MetricCellsConverged]; got != 2 {
		t.Errorf("%s = %d, want 2", MetricCellsConverged, got)
	}
}

// TestAdaptiveCapIsAConvergenceFailure: a cell whose data cannot satisfy
// the policy stops at MaxRuns, reports Converged=false, and increments the
// convergence-failure counter — it must not loop forever or pretend.
func TestAdaptiveCapIsAConvergenceFailure(t *testing.T) {
	reg := metrics.NewRegistry()
	r := New(Options{BaseSeed: 7, Jobs: 2, ExecuteCell: asCell(fakeResult), Metrics: reg})
	prec := stats.Precision{Quantiles: []float64{0.99}, RelWidth: 0.05, MaxRuns: 6}

	// fakeResult contributes 3 samples per replica: 18 pooled samples can
	// never push the DKW epsilon under 1-q = 0.01.
	res, ad, err := r.MergedAdaptive("starved", core.RunConfig{Duration: time.Second}, prec)
	if err != nil {
		t.Fatal(err)
	}
	if ad.Converged {
		t.Fatal("data-starved cell claimed convergence")
	}
	if ad.Replicas != 6 {
		t.Fatalf("capped cell used %d replicas, want MaxRuns=6", ad.Replicas)
	}
	if res == nil || res.Samples != 18 {
		t.Fatalf("capped cell still owes its pooled result (samples=%v)", res.Samples)
	}
	if got := reg.Snapshot().Counters[MetricConvergenceFailures]; got != 1 {
		t.Errorf("%s = %d, want 1", MetricConvergenceFailures, got)
	}

	// An invalid policy is rejected before any replica runs.
	if _, _, err := r.MergedAdaptive("bad", core.RunConfig{}, stats.Precision{RelWidth: -1}); err == nil {
		t.Error("invalid precision policy accepted")
	}
}

// TestAdaptiveByteIdentity is the adaptive determinism guard: the same
// spec and policy must pick the same replica counts and produce
// byte-identical pooled encodings at -jobs 1 vs 8, through a warm
// checkpoint store (zero executions), and when an interrupted adaptive
// campaign is resumed from its partial store.
func TestAdaptiveByteIdentity(t *testing.T) {
	oses := []string{"cellA", "cellB", "cellC"}
	classes := []workload.Class{workload.Class(0), workload.Class(1), workload.Class(1)}
	run := func(jobs int, st *store.Store, execute func(core.RunConfig) *core.Result, ctx context.Context) (map[string][]byte, map[string]Adaptive, error) {
		r := New(Options{BaseSeed: 77, Jobs: jobs, Store: st, ExecuteCell: asCell(execute), Context: ctx})
		enc := make(map[string][]byte, len(oses))
		ads := make(map[string]Adaptive, len(oses))
		for i, key := range oses {
			res, ad, err := r.MergedAdaptive(key, core.RunConfig{Workload: classes[i]}, p99Policy())
			if err != nil {
				return nil, nil, err
			}
			var buf bytes.Buffer
			if err := core.EncodeResult(&buf, res); err != nil {
				return nil, nil, err
			}
			enc[key] = buf.Bytes()
			ads[key] = ad
		}
		return enc, ads, nil
	}

	ref, refAds, err := run(1, nil, adaptiveFake, nil)
	if err != nil {
		t.Fatal(err)
	}

	wide, wideAds, err := run(8, nil, adaptiveFake, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range oses {
		if !bytes.Equal(ref[key], wide[key]) {
			t.Errorf("%s: jobs=8 pooled encoding differs from jobs=1", key)
		}
		if refAds[key] != wideAds[key] {
			t.Errorf("%s: adaptive outcome differs across jobs: %+v vs %+v", key, refAds[key], wideAds[key])
		}
	}

	// Warm store: a second campaign over the same store replays every
	// replica from disk, executes nothing, and still picks the same counts.
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	counting := func(cfg core.RunConfig) *core.Result {
		calls.Add(1)
		return adaptiveFake(cfg)
	}
	cold, _, err := run(4, st, counting, nil)
	if err != nil {
		t.Fatal(err)
	}
	executed := calls.Load()
	warm, warmAds, err := run(4, st, counting, nil)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != executed {
		t.Fatalf("warm adaptive run re-executed cells: %d -> %d", executed, calls.Load())
	}
	for _, key := range oses {
		if !bytes.Equal(ref[key], cold[key]) || !bytes.Equal(ref[key], warm[key]) {
			t.Errorf("%s: checkpointed adaptive encodings diverge from reference", key)
		}
		if warmAds[key] != refAds[key] {
			t.Errorf("%s: warm-store adaptive outcome %+v, want %+v", key, warmAds[key], refAds[key])
		}
	}

	// Kill/resume: cancel after the first few replicas land, then resume
	// against the partial store — the resumed campaign must be
	// indistinguishable from an uninterrupted one.
	st2, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var landed atomic.Int32
	interrupting := func(cfg core.RunConfig) *core.Result {
		if landed.Add(1) == 4 {
			cancel() // simulate SIGINT a few replicas into the campaign
		}
		return adaptiveFake(cfg)
	}
	if _, _, err := run(2, st2, interrupting, ctx); !errors.Is(err, ErrCancelled) {
		t.Fatalf("interrupted adaptive campaign: %v, want ErrCancelled", err)
	}
	resumed, resumedAds, err := run(2, st2, adaptiveFake, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range oses {
		if !bytes.Equal(ref[key], resumed[key]) {
			t.Errorf("%s: resumed adaptive encoding differs from uninterrupted run", key)
		}
		if resumedAds[key] != refAds[key] {
			t.Errorf("%s: resumed adaptive outcome %+v, want %+v", key, resumedAds[key], refAds[key])
		}
	}
}

// TestRunMatrixAdaptive: the matrix driver pools every logical cell under
// the policy, reports per-cell Adaptive outcomes keyed by MatrixKey, and
// matches what per-cell MergedAdaptive computes.
func TestRunMatrixAdaptive(t *testing.T) {
	osList := []ospersona.OS{ospersona.NT4, ospersona.Win98}
	classes := []workload.Class{workload.Class(0), workload.Class(1)}
	r := New(Options{BaseSeed: 5, Jobs: 8, ExecuteCell: asCell(adaptiveFake)})
	byOS, ads, err := r.RunMatrixAdaptive(osList, classes, "adp", core.RunConfig{}, p99Policy())
	if err != nil {
		t.Fatal(err)
	}
	if len(ads) != len(osList)*len(classes) {
		t.Fatalf("adaptive outcomes for %d cells, want %d", len(ads), len(osList)*len(classes))
	}
	ref := New(Options{BaseSeed: 5, Jobs: 1, ExecuteCell: asCell(adaptiveFake)})
	for _, o := range osList {
		for _, c := range classes {
			key := MatrixKey(o, c, "adp")
			ad, ok := ads[key]
			if !ok || ad.Replicas < stats.DefaultMinRuns {
				t.Fatalf("outcome missing or malformed for %s: %+v", key, ad)
			}
			cfg := core.RunConfig{}
			cfg.OS = o
			cfg.Workload = c
			want, wantAd, err := ref.MergedAdaptive(key, cfg, p99Policy())
			if err != nil {
				t.Fatal(err)
			}
			if wantAd != ad {
				t.Errorf("%s: matrix outcome %+v, per-cell outcome %+v", key, ad, wantAd)
			}
			if !bytes.Equal(encodeOne(t, byOS[o][c]), encodeOne(t, want)) {
				t.Errorf("%s: matrix pooled encoding differs from per-cell MergedAdaptive", key)
			}
		}
	}
}
