package server

// Adaptive campaigns through the whole service stack: a Precision-bearing
// spec must stream one pooled document per logical cell, byte-identical to
// the same policy run locally on the campaign runner — in-process, through
// a warm checkpoint store, and executed by a latserved-style worker fleet.
// The policy is part of the campaign identity, so the same cells without it
// are a different campaign.

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"wdmlat/internal/api"
	"wdmlat/internal/campaign"
	"wdmlat/internal/campaign/store"
	"wdmlat/internal/client"
	"wdmlat/internal/core"
	"wdmlat/internal/metrics"
	"wdmlat/internal/ospersona"
	"wdmlat/internal/sim"
	"wdmlat/internal/stats"
	"wdmlat/internal/workload"
)

// adaptiveExec is a pure, convergence-capable executor shared by the local
// reference run, the in-process server, and the fleet workers: per-replica
// sample batches sized by workload class, so logical cells converge at
// different replica counts.
func adaptiveExec(cfg core.RunConfig) *core.Result {
	rng := sim.NewRNG(cfg.Seed)
	perReplica := 5000 + 2000*int(cfg.Workload%2)
	fill := func(base sim.Cycles) *stats.Histogram {
		h := stats.NewHistogram(sim.DefaultFreq)
		for i := 0; i < perReplica; i++ {
			h.Add(base + rng.Cyclesn(48))
		}
		return h
	}
	return &core.Result{
		// The coordinator's completion validation re-derives the cell
		// fingerprint from the embedded config, which the real simulator
		// normalizes — a fleet-compatible fake must too.
		Config:       cfg.Normalized(),
		OSName:       "fake",
		Class:        cfg.Workload,
		Observed:     1 << 20,
		Freq:         sim.DefaultFreq,
		Samples:      uint64(perReplica),
		DpcInt:       fill(1024),
		DpcIntOracle: stats.NewHistogram(sim.DefaultFreq),
		Thread:       map[int]*stats.Histogram{28: fill(2048), 24: fill(4096)},
		HwToThread:   map[int]*stats.Histogram{28: fill(2048), 24: fill(4096)},
	}
}

func adaptiveSpec() *api.CampaignSpec {
	prec := stats.Precision{Quantiles: []float64{0.99}, RelWidth: 0.15, MaxRuns: 16}
	return &api.CampaignSpec{
		BaseSeed: 31,
		Cells: []api.CellSpec{
			{Key: "nt4/business/adp", Config: core.RunConfig{OS: ospersona.NT4, Workload: workload.Class(1)}},
			{Key: "nt4/games/adp", Config: core.RunConfig{OS: ospersona.NT4, Workload: workload.Class(0)}},
			{Key: "win98/business/adp", Config: core.RunConfig{OS: ospersona.Win98, Workload: workload.Class(1)}},
		},
		Precision: &prec,
	}
}

// localAdaptiveBytes is the reference stream: the spec's policy applied
// per logical cell on a plain campaign runner.
func localAdaptiveBytes(t *testing.T, spec *api.CampaignSpec, jobs int) ([]byte, map[string]campaign.Adaptive) {
	t.Helper()
	run := campaign.New(campaign.Options{BaseSeed: spec.Seed(), Jobs: jobs,
		ExecuteCell: func(_ string, cfg core.RunConfig) (*core.Result, error) { return adaptiveExec(cfg), nil }})
	var buf bytes.Buffer
	ads := make(map[string]campaign.Adaptive, len(spec.Cells))
	for _, c := range spec.Cells {
		res, ad, err := run.MergedAdaptive(c.Key, c.Config, *spec.Precision)
		if err != nil {
			t.Fatalf("local adaptive cell %q: %v", c.Key, err)
		}
		if err := core.EncodeResult(&buf, res); err != nil {
			t.Fatal(err)
		}
		ads[c.Key] = ad
	}
	return buf.Bytes(), ads
}

func TestServerAdaptiveByteIdenticalToLocalRun(t *testing.T) {
	spec := adaptiveSpec()
	want, ads := localAdaptiveBytes(t, spec, 1)
	want8, _ := localAdaptiveBytes(t, spec, 8)
	if !bytes.Equal(want, want8) {
		t.Fatal("local adaptive runs at jobs=1 and jobs=8 differ")
	}
	varied := false
	for _, ad := range ads {
		if !ad.Converged {
			t.Fatalf("reference cell failed to converge: %+v", ads)
		}
		if ad.Replicas != ads[spec.Cells[0].Key].Replicas {
			varied = true
		}
	}
	if !varied {
		t.Fatal("test spec does not vary replica counts per cell; weaken a class")
	}

	reg := metrics.NewRegistry()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Options{Jobs: 4, Store: st, Metrics: reg, Execute: adaptiveExec})
	ts := httptest.NewServer(srv.Handler())

	status, got := fetchViaClient(t, ts, spec)
	if !bytes.Equal(got, want) {
		t.Errorf("adaptive server bytes differ from local run (%d vs %d bytes)", len(got), len(want))
	}
	if status.Cached {
		t.Error("cold adaptive run claims cached")
	}
	if status.Done != len(spec.Cells) || status.Total != len(spec.Cells) {
		t.Errorf("progress %d/%d, want %d/%d logical cells", status.Done, status.Total, len(spec.Cells), len(spec.Cells))
	}
	var totalReplicas uint64
	for _, ad := range ads {
		totalReplicas += uint64(ad.Replicas)
	}
	if exec := reg.Counter(MetricCellsExec).Value(); exec != totalReplicas {
		t.Errorf("executed %d replicas, want %d", exec, totalReplicas)
	}
	if n := reg.Counter(campaign.MetricReplicasAdaptive).Value(); n != totalReplicas {
		t.Errorf("%s = %d, want %d", campaign.MetricReplicasAdaptive, n, totalReplicas)
	}
	if n := reg.Counter(campaign.MetricCellsConverged).Value(); n != uint64(len(spec.Cells)) {
		t.Errorf("%s = %d, want %d", campaign.MetricCellsConverged, n, len(spec.Cells))
	}
	ts.Close()
	srv.Close()

	// Warm store: a fresh server replays every replica from the cache,
	// executes nothing, and still serves identical bytes — the stopping
	// rule re-derives the same counts from the cached data.
	reg2 := metrics.NewRegistry()
	srv2 := New(Options{Jobs: 4, Store: st, Metrics: reg2, Execute: adaptiveExec})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	defer srv2.Close()
	status2, got2 := fetchViaClient(t, ts2, spec)
	if !bytes.Equal(got2, want) {
		t.Error("warm adaptive server bytes differ from local run")
	}
	if !status2.Cached {
		t.Error("warm adaptive run not marked cached")
	}
	if exec := reg2.Counter(MetricCellsExec).Value(); exec != 0 {
		t.Errorf("warm adaptive run executed %d replicas, want 0", exec)
	}
}

func TestFleetAdaptiveByteIdenticalToLocalRun(t *testing.T) {
	spec := adaptiveSpec()
	want, _ := localAdaptiveBytes(t, spec, 1)

	reg := metrics.NewRegistry()
	srv := New(Options{
		Jobs:    4,
		Metrics: reg,
		Fleet:   &CoordinatorOptions{},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for i := 0; i < 3; i++ {
		go func() {
			wc := client.New(ts.URL, client.Options{})
			_ = wc.RunWorker(ctx, client.WorkerOptions{Execute: adaptiveExec})
		}()
	}

	status, got := fetchViaClient(t, ts, spec)
	if !bytes.Equal(got, want) {
		t.Errorf("fleet adaptive bytes differ from local run (%d vs %d bytes)", len(got), len(want))
	}
	if status.Done != len(spec.Cells) {
		t.Errorf("fleet adaptive progress %d, want %d logical cells", status.Done, len(spec.Cells))
	}
}

func TestAdaptiveAdmissionBound(t *testing.T) {
	srv := New(Options{Execute: adaptiveExec})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// 3 cells x MaxRuns 1366 = 4098 worst-case replicas > 4096; and 4
	// cells x MaxRuns 2^62, whose product wraps to 0 in int arithmetic.
	wide := adaptiveSpec()
	wide.Precision.MaxRuns = maxCells/len(wide.Cells) + 1
	huge := adaptiveSpec()
	huge.Cells = append(huge.Cells, api.CellSpec{Key: "win98/games/adp", Config: core.RunConfig{OS: ospersona.Win98}})
	huge.Precision.MaxRuns = 1 << 62
	c := client.New(ts.URL, client.Options{})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, spec := range []*api.CampaignSpec{wide, huge} {
		_, err := c.Submit(ctx, spec)
		var se *client.StatusError
		if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
			t.Fatalf("%d cells x max_runs %d: submit = %v, want 400 past the worst-case cell bound",
				len(spec.Cells), spec.Precision.MaxRuns, err)
		}
	}
}
