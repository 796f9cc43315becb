package frontier_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"wdmlat/internal/api"
	"wdmlat/internal/campaign"
	"wdmlat/internal/campaign/store"
	"wdmlat/internal/client"
	"wdmlat/internal/core"
	"wdmlat/internal/frontier"
	"wdmlat/internal/hw"
	"wdmlat/internal/metrics"
	"wdmlat/internal/ospersona"
	"wdmlat/internal/server"
	"wdmlat/internal/stats"
)

// sweepOpts is the shared short-but-real sweep: one Win98 per-assert track
// whose drop signal saturates inside [32768, 131072] at a 300 ms
// collection, so the grid ascent and bisection both execute against the
// real simulator in a few probe cells.
func sweepOpts(reg *metrics.Registry) frontier.Options {
	return frontier.Options{
		OSes:        []ospersona.OS{ospersona.Win98},
		Modes:       []hw.Moderation{hw.ModeratePerWindow},
		MinPPS:      32768,
		MaxPPS:      131072,
		BisectSteps: 2,
		Duration:    300 * time.Millisecond,
		Runs:        2,
		Metrics:     reg,
	}
}

// frontierBytes serializes a sweep outcome for byte comparison: the knee
// line plus every probe's verdict and full encoded result.
func frontierBytes(t *testing.T, fs []frontier.Frontier) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, f := range fs {
		fmt.Fprintf(&buf, "%s/%s knee=%v censored=%v\n",
			campaign.OSSlug(f.OS), f.Mode, f.Knee, f.Censored)
		for _, p := range f.Probes {
			fmt.Fprintf(&buf, "r%d %v\n", int64(p.PPS), p.Verdict)
			if err := core.EncodeResult(&buf, p.Result); err != nil {
				t.Fatal(err)
			}
		}
	}
	return buf.Bytes()
}

func runSweep(t *testing.T, opts campaign.Options, fopts frontier.Options) []frontier.Frontier {
	t.Helper()
	run := campaign.New(opts)
	fs, err := frontier.Run(run, fopts)
	if err != nil {
		t.Fatalf("frontier run: %v", err)
	}
	if err := run.Wait(); err != nil {
		t.Fatalf("campaign wait: %v", err)
	}
	return fs
}

// TestFrontierByteIdentity is the frontier's determinism property test, the
// TestAdaptiveByteIdentity bar applied to the sweep: identical bytes at
// jobs=1 and jobs=8, across a mid-sweep kill plus warm-store resume, and
// under the fleet dispatch path.
func TestFrontierByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the real simulator")
	}
	const baseSeed = 41

	reg := metrics.NewRegistry()
	want := frontierBytes(t, runSweep(t,
		campaign.Options{BaseSeed: baseSeed, Jobs: 1}, sweepOpts(reg)))

	// The sweep must actually have exercised both phases and found a knee.
	if reg.Counter(frontier.MetricProbes).Value() < 4 {
		t.Fatalf("only %d probes; sweep did not bisect", reg.Counter(frontier.MetricProbes).Value())
	}
	if reg.Counter(frontier.MetricSaturatedProbes).Value() == 0 {
		t.Fatal("no saturated probes; sweep range no longer brackets the knee")
	}
	if reg.Counter(frontier.MetricKnees).Value() != 1 {
		t.Fatal("no knee detected")
	}

	t.Run("jobs8", func(t *testing.T) {
		got := frontierBytes(t, runSweep(t,
			campaign.Options{BaseSeed: baseSeed, Jobs: 8}, sweepOpts(nil)))
		if !bytes.Equal(got, want) {
			t.Error("jobs=8 sweep differs from jobs=1")
		}
	})

	t.Run("killResume", func(t *testing.T) {
		dir := t.TempDir()
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		// Kill: cancel the campaign context after the first few cells
		// complete, mid-sweep. The interrupted sweep fails; its finished
		// cells are checkpointed.
		ctx, cancel := context.WithCancel(context.Background())
		var done atomic.Uint64
		run := campaign.New(campaign.Options{
			BaseSeed: baseSeed,
			Jobs:     2,
			Context:  ctx,
			Store:    st,
			OnCellDone: func(string) {
				if done.Add(1) == 3 {
					cancel()
				}
			},
		})
		if _, err := frontier.Run(run, sweepOpts(nil)); err == nil {
			// Workers may drain the whole sweep before cancellation lands;
			// that still leaves a fully-populated store, which is fine.
			t.Log("sweep finished before cancellation landed")
		}
		_ = run.Wait()

		// Resume: a fresh runner on the same store must finish the sweep
		// and produce identical bytes.
		st2, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		got := frontierBytes(t, runSweep(t,
			campaign.Options{BaseSeed: baseSeed, Jobs: 4, Store: st2}, sweepOpts(nil)))
		if !bytes.Equal(got, want) {
			t.Error("resumed sweep differs from uninterrupted run")
		}
	})

	t.Run("fleet", func(t *testing.T) {
		srv := server.New(server.Options{Jobs: 4, Fleet: &server.CoordinatorOptions{}})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		defer srv.Close()

		ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
		defer cancel()
		for i := 0; i < 3; i++ {
			go func() {
				wc := client.New(ts.URL, client.Options{})
				_ = wc.RunWorker(ctx, client.WorkerOptions{})
			}()
		}

		// The fleet seam: each campaign cell becomes a one-cell spec
		// dispatched through the coordinator; the spec carries the outer
		// base seed and the cell's key, so the fleet derives the same
		// per-cell seed the local runner would.
		fleetCell := func(key string, cfg core.RunConfig) (*core.Result, error) {
			c := client.New(ts.URL, client.Options{})
			spec := &api.CampaignSpec{
				BaseSeed: baseSeed,
				Cells:    []api.CellSpec{{Key: key, Config: cfg}},
			}
			st, err := c.Submit(ctx, spec)
			if err != nil {
				return nil, err
			}
			if st, err = c.Watch(ctx, st.ID, nil); err != nil {
				return nil, err
			}
			if st.State != api.StateDone {
				return nil, fmt.Errorf("fleet campaign %s: %s", st.State, st.Error)
			}
			data, err := c.Result(ctx, st.ID)
			if err != nil {
				return nil, err
			}
			return core.DecodeResult(bytes.NewReader(data))
		}
		got := frontierBytes(t, runSweep(t,
			campaign.Options{BaseSeed: baseSeed, Jobs: 4, ExecuteCell: fleetCell},
			sweepOpts(nil)))
		if !bytes.Equal(got, want) {
			t.Error("fleet sweep differs from local run")
		}
	})
}

// TestFrontierKneeAndProbeShape pins the sweep mechanics on the cheap
// track: probes sorted ascending, the knee separating sustainable from
// saturated, and the bracket actually refined by bisection.
func TestFrontierKneeAndProbeShape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the real simulator")
	}
	fs := runSweep(t, campaign.Options{BaseSeed: 41, Jobs: 8}, sweepOpts(nil))
	if len(fs) != 1 {
		t.Fatalf("%d frontiers, want 1", len(fs))
	}
	f := fs[0]
	if f.Censored {
		t.Fatal("track censored; range no longer brackets the knee")
	}
	if f.Knee < 32768 || f.Knee >= 131072 {
		t.Fatalf("knee %v outside (32768, 131072)", f.Knee)
	}
	for i, p := range f.Probes {
		if i > 0 && p.PPS <= f.Probes[i-1].PPS {
			t.Fatalf("probes not strictly ascending: %v then %v", f.Probes[i-1].PPS, p.PPS)
		}
		if p.PPS <= f.Knee && p.Verdict.Saturated {
			t.Fatalf("probe at %v below knee %v judged saturated", p.PPS, f.Knee)
		}
		if p.PPS > f.Knee && !p.Verdict.Saturated {
			t.Fatalf("probe at %v above knee %v judged sustainable", p.PPS, f.Knee)
		}
		if p.Result.Storm == nil || p.Result.NicLat == nil {
			t.Fatalf("probe at %v missing storm accounting", p.PPS)
		}
	}
	// More probes than the 3-point grid: bisection refined the bracket.
	if len(f.Probes) < 4 {
		t.Fatalf("%d probes; bisection never ran", len(f.Probes))
	}
	if f.KneeLabel() == "" {
		t.Fatal("empty knee label")
	}
}

// TestFrontierAdaptivePrecision drives the sweep through the PR 9 adaptive
// replica loop: every probe must report the replica count the stopping
// rule settled on, and the sweep stays deterministic — two runs with the
// same policy produce identical bytes.
func TestFrontierAdaptivePrecision(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the real simulator")
	}
	opts := sweepOpts(nil)
	opts.Precision = &stats.Precision{RelWidth: 0.5, MaxRuns: 4}
	a := runSweep(t, campaign.Options{BaseSeed: 41, Jobs: 4}, opts)
	for _, f := range a {
		for _, p := range f.Probes {
			if p.Adaptive.Replicas < 1 {
				t.Fatalf("probe at %v reports %d adaptive replicas", p.PPS, p.Adaptive.Replicas)
			}
		}
	}
	b := runSweep(t, campaign.Options{BaseSeed: 41, Jobs: 8}, opts)
	if !bytes.Equal(frontierBytes(t, a), frontierBytes(t, b)) {
		t.Error("adaptive sweep not byte-identical across jobs 4 and 8")
	}
}

// TestFrontierRejectsUnsweepableOptions: options that describe no sweep
// fail Run before its first probe, so nothing reaches the simulator or the
// checkpoint store. A NaN floor used to build no storm and panic in the
// criterion; a NaN gap used to panic in the store's fingerprint; the rest
// swept a range that is not one, or failed every cell.
func TestFrontierRejectsUnsweepableOptions(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(o *frontier.Options)
	}{
		{"NaN floor", func(o *frontier.Options) { o.MinPPS = math.NaN() }},
		{"infinite ceiling", func(o *frontier.Options) { o.MaxPPS = math.Inf(1) }},
		{"NaN gap", func(o *frontier.Options) { o.NICGapUS = math.NaN() }},
		{"infinite gap", func(o *frontier.Options) { o.NICGapUS = math.Inf(-1) }},
		{"floor above the default ceiling", func(o *frontier.Options) { o.MinPPS, o.MaxPPS = 300000, 0 }},
		{"floor below one packet per second", func(o *frontier.Options) { o.MinPPS = 0.5 }},
		{"negative frame size", func(o *frontier.Options) { o.StormBytes = -1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := store.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			run := campaign.New(campaign.Options{BaseSeed: 41, Jobs: 2, Store: st})
			opts := sweepOpts(nil)
			opts.Modes = []hw.Moderation{hw.ModerateITR}
			tc.edit(&opts)
			fs, err := frontier.Run(run, opts)
			if err == nil {
				t.Fatalf("Run accepted the options and returned %d frontiers", len(fs))
			}
			if _, total := run.Progress(); total != 0 {
				t.Fatalf("Run submitted %d cells before failing: %v", total, err)
			}
		})
	}
}
