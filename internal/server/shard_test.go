package server

// The distribution theorem, tested as a property: a campaign's result
// stream is byte-identical whether its cells ran in one process or were
// sharded across N workers — for every fleet size 1..16, under seeded
// join/leave churn where workers die mid-lease and replacements take over.
// The coordinator may change *who* computes a cell, never *what* the cell
// is, so the merged bytes must be invariant across every interleaving.
//
// Two layers: TestFleetShardingByteIdentical drives the Coordinator
// directly with fabricated in-process workers (instant, exhaustive over
// fleet sizes), and TestFleetHTTPByteIdenticalWithWorkerKill runs the real
// simulator through the full HTTP stack — latserved fleet handlers, the
// client worker loop, a worker killed mid-campaign — and compares against
// a local run.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"wdmlat/internal/api"
	"wdmlat/internal/campaign"
	"wdmlat/internal/client"
	"wdmlat/internal/core"
	"wdmlat/internal/metrics"
	"wdmlat/internal/ospersona"
	"wdmlat/internal/workload"
)

// shardCells builds a campaign matrix of distinguishable fabricated cells.
func shardCells(n int) []campaign.Cell {
	oses := []ospersona.OS{ospersona.NT4, ospersona.Win98}
	classes := []workload.Class{workload.Business, workload.Games, workload.Web}
	cells := make([]campaign.Cell, n)
	for i := range cells {
		cells[i] = campaign.Cell{
			Key: fmt.Sprintf("shard/cell/%d", i),
			Config: core.RunConfig{
				OS:       oses[i%len(oses)],
				Workload: classes[i%len(classes)],
				Duration: time.Duration(i+1) * time.Millisecond,
			},
		}
	}
	return cells
}

// campaignBytes runs cells through a campaign runner with the given
// executor and returns the merged result stream in submission order — the
// exact bytes the server would serve.
func campaignBytes(t *testing.T, cells []campaign.Cell, baseSeed uint64, jobs int,
	exec func(key string, cfg core.RunConfig) (*core.Result, error)) []byte {
	t.Helper()
	run := campaign.New(campaign.Options{BaseSeed: baseSeed, Jobs: jobs, ExecuteCell: exec})
	run.Submit(cells...)
	var buf bytes.Buffer
	for _, c := range cells {
		res, err := run.Result(c.Key)
		if err != nil {
			t.Fatalf("cell %q: %v", c.Key, err)
		}
		if err := core.EncodeResult(&buf, res); err != nil {
			t.Fatal(err)
		}
	}
	if err := run.Wait(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fleetBytes runs cells on a coordinator served by `workers` fabricated
// worker goroutines. churnSeed > 0 injects seeded join/leave interleaving:
// staggered registration, and mortal workers that die mid-lease (their
// cell is abandoned for the janitor to reclaim) with an immortal
// replacement joining in their stead.
func fleetBytes(t *testing.T, cells []campaign.Cell, baseSeed uint64, workers int, churnSeed int64) []byte {
	t.Helper()
	co := NewCoordinator(CoordinatorOptions{LeaseTTL: 100 * time.Millisecond, Poll: time.Millisecond})
	defer co.Close()

	rng := rand.New(rand.NewSource(churnSeed))
	var wg sync.WaitGroup
	var spawn func(startDelay time.Duration, lifetime int)
	spawn = func(startDelay time.Duration, lifetime int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(startDelay)
			w, _ := co.Register("")
			completed := 0
			for {
				resp, ok := co.Lease(w.WorkerID)
				if !ok || resp.Draining {
					return
				}
				if len(resp.Leases) == 0 {
					time.Sleep(time.Millisecond)
					continue
				}
				l := resp.Leases[0]
				if lifetime > 0 && completed >= lifetime {
					// Die holding the lease: stop heartbeating and leave the
					// cell for the reclaim janitor. A fresh immortal worker
					// joins so the fleet always makes progress.
					spawn(0, 0)
					return
				}
				payload, err := api.EncodeCellResult(fakeCellResult(l))
				if err != nil {
					t.Errorf("encoding payload: %v", err)
					return
				}
				co.Complete(w.WorkerID, api.CompleteRequest{Fingerprint: l.Fingerprint, Result: payload})
				completed++
			}
		}()
	}
	for i := 0; i < workers; i++ {
		var delay time.Duration
		lifetime := 0
		if churnSeed > 0 {
			delay = time.Duration(rng.Intn(10)) * time.Millisecond
			if rng.Intn(2) == 0 {
				lifetime = 1 + rng.Intn(2)
			}
		}
		spawn(delay, lifetime)
	}

	got := campaignBytes(t, cells, baseSeed, 6, func(key string, cfg core.RunConfig) (*core.Result, error) {
		return co.ExecuteRemote(context.Background(), baseSeed, key, cfg)
	})
	co.Close() // draining grants release the worker loops
	wg.Wait()
	return got
}

// TestFleetShardingByteIdentical is the satellite property test: for every
// worker count 1..16, with seeded churn, the fleet-merged stream equals
// the single-process stream byte for byte.
func TestFleetShardingByteIdentical(t *testing.T) {
	const baseSeed = 77
	cells := shardCells(12)

	// Single-process reference: the same pure executor the fabricated
	// workers apply, run inline with no coordinator at all.
	want := campaignBytes(t, cells, baseSeed, 1, func(key string, cfg core.RunConfig) (*core.Result, error) {
		return fakeCellResult(api.Lease{Key: key, Config: cfg}), nil
	})
	if len(want) == 0 {
		t.Fatal("reference stream is empty")
	}

	counts := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	if testing.Short() {
		counts = []int{1, 4, 16}
	}
	for _, workers := range counts {
		for _, churnSeed := range []int64{0, int64(1000 + workers)} {
			got := fleetBytes(t, cells, baseSeed, workers, churnSeed)
			if !bytes.Equal(got, want) {
				t.Errorf("workers=%d churn=%d: fleet stream differs from single-process stream (%d vs %d bytes)",
					workers, churnSeed, len(got), len(want))
			}
		}
	}
}

// TestFleetHTTPByteIdenticalWithWorkerKill runs the whole stack for real:
// a fleet-mode server, latworkd-equivalent workers over HTTP running the
// actual simulator, and a victim worker whose execution wedges before
// being abandoned mid-campaign. The merged result must equal a local run,
// and the loss must be visible in the re-dispatch counters.
func TestFleetHTTPByteIdenticalWithWorkerKill(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the real simulator")
	}
	spec := e2eSpec()
	want := runLocally(t, spec, 4)

	reg := metrics.NewRegistry()
	srv := New(Options{
		Jobs:    4,
		Metrics: reg,
		Fleet:   &CoordinatorOptions{LeaseTTL: 400 * time.Millisecond, Poll: 10 * time.Millisecond},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	c := client.New(ts.URL, client.Options{})
	st, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	// The victim registers first and wedges on its first cell: its lease
	// can only come back via heartbeat expiry and re-dispatch.
	wedge := make(chan struct{})
	unwedge := sync.OnceFunc(func() { close(wedge) })
	defer unwedge()
	victimCtx, killVictim := context.WithCancel(ctx)
	defer killVictim()
	var workerWG sync.WaitGroup
	workerWG.Add(1)
	go func() {
		defer workerWG.Done()
		vc := client.New(ts.URL, client.Options{})
		vc.RunWorker(victimCtx, client.WorkerOptions{
			Name: "victim",
			Execute: func(cfg core.RunConfig) *core.Result {
				<-wedge
				return core.Run(cfg)
			},
		})
	}()
	waitFor(t, "victim to hold a lease", func() bool {
		fs, err := c.Fleet(ctx)
		return err == nil && fs.Leased >= 1
	})
	killVictim() // SIGKILL-equivalent: heartbeats stop, the lease is stranded

	// Two healthy workers running the real simulator finish the campaign,
	// including the victim's re-dispatched cell.
	workerErrs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		workerWG.Add(1)
		go func(i int) {
			defer workerWG.Done()
			wc := client.New(ts.URL, client.Options{})
			workerErrs <- wc.RunWorker(ctx, client.WorkerOptions{Name: fmt.Sprintf("healthy-%d", i)})
		}(i)
	}

	st, err = c.Watch(ctx, st.ID, nil)
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	if st.State != api.StateDone {
		t.Fatalf("campaign finished %s: %s", st.State, st.Error)
	}
	got, err := c.Result(ctx, st.ID)
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("fleet result differs from local run (%d vs %d bytes)", len(got), len(want))
	}

	if n := reg.Counter(MetricFleetCellsRedispatched).Value(); n < 1 {
		t.Errorf("%s = %d, want >= 1 (victim's cell must have been re-dispatched)", MetricFleetCellsRedispatched, n)
	}
	if n := reg.Counter(MetricFleetWorkersExpired).Value(); n < 1 {
		t.Errorf("%s = %d, want >= 1", MetricFleetWorkersExpired, n)
	}
	if n := reg.Counter(MetricFleetCellsCompleted).Value(); n != uint64(len(spec.Cells)) {
		t.Errorf("%s = %d, want %d", MetricFleetCellsCompleted, n, len(spec.Cells))
	}

	// Shutdown drains the fleet: healthy workers exit nil. The victim's
	// wedged execution is released so its session can drain too.
	srv.Close()
	for i := 0; i < 2; i++ {
		if err := <-workerErrs; err != nil && ctx.Err() == nil {
			t.Errorf("healthy worker exit: %v", err)
		}
	}
	unwedge()
	workerWG.Wait()
}
