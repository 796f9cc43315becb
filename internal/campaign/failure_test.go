package campaign

// Failure-path tests: the fault-tolerance contract of the runner. A
// panicking cell must not deadlock collection, a cancelled campaign must
// drain and checkpoint what it has, a resumed campaign must be
// indistinguishable from an uninterrupted one, and collecting the same
// key twice must not corrupt the pooled results.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wdmlat/internal/campaign/store"
	"wdmlat/internal/core"
	"wdmlat/internal/ospersona"
	"wdmlat/internal/sim"
	"wdmlat/internal/stats"
	"wdmlat/internal/workload"
)

// fakeResult is a cheap, deterministic stand-in for core.Run: a few
// histogram samples derived from the cell's seed, enough for Merge and
// the checkpoint codec to chew on without simulating anything.
func fakeResult(cfg core.RunConfig) *core.Result {
	s := sim.Cycles(cfg.Seed%1000) + 1
	h := func(vals ...sim.Cycles) *stats.Histogram {
		hh := stats.NewHistogram(sim.DefaultFreq)
		for _, v := range vals {
			hh.Add(v)
		}
		return hh
	}
	return &core.Result{
		Config:       cfg,
		OSName:       "fake",
		Class:        cfg.Workload,
		Observed:     1000 + s,
		Freq:         sim.DefaultFreq,
		Samples:      3,
		DpcInt:       h(s, 2*s, 3*s),
		DpcIntOracle: h(s),
		Thread:       map[int]*stats.Histogram{28: h(4 * s), 24: h(5 * s)},
		HwToThread:   map[int]*stats.Histogram{28: h(6 * s), 24: h(7 * s)},
	}
}

// asCell adapts a config-only fake executor to the ExecuteCell seam.
func asCell(execute func(core.RunConfig) *core.Result) func(string, core.RunConfig) (*core.Result, error) {
	return func(_ string, cfg core.RunConfig) (*core.Result, error) { return execute(cfg), nil }
}

// TestPanickingCellCompletesCampaign: a worker panic inside a cell is
// recovered and published as that cell's failure; the rest of the campaign
// finishes, Wait returns (instead of deadlocking on the lost decrement)
// naming the failed cell, and Result on the bad key reports a *PanicError
// carrying key, value and stack.
func TestPanickingCellCompletesCampaign(t *testing.T) {
	const boomDur = 666 * time.Second
	r := New(Options{BaseSeed: 5, Jobs: 2, ExecuteCell: asCell(func(cfg core.RunConfig) *core.Result {
		if cfg.Duration == boomDur {
			panic("injected cell failure")
		}
		return fakeResult(cfg)
	})})
	r.Submit(
		Cell{Key: "good/1", Config: core.RunConfig{Duration: time.Second}},
		Cell{Key: "bad/0", Config: core.RunConfig{Duration: boomDur}},
		Cell{Key: "good/2", Config: core.RunConfig{Duration: time.Second}},
	)

	err := r.Wait()
	if err == nil || !strings.Contains(err.Error(), `"bad/0"`) {
		t.Fatalf("Wait error %v, want one naming cell \"bad/0\"", err)
	}
	for _, k := range []string{"good/1", "good/2"} {
		if res, rerr := r.Result(k); rerr != nil || res == nil {
			t.Fatalf("healthy cell %s: (%v, %v), want a result", k, res, rerr)
		}
	}
	_, rerr := r.Result("bad/0")
	var pe *PanicError
	if !errors.As(rerr, &pe) {
		t.Fatalf("Result(bad/0) error %v, want a *PanicError", rerr)
	}
	if pe.Key != "bad/0" || pe.Value != "injected cell failure" || len(pe.Stack) == 0 {
		t.Fatalf("PanicError incomplete: key %q value %v stack %d bytes", pe.Key, pe.Value, len(pe.Stack))
	}
	fails := r.Failed()
	if len(fails) != 1 || fails[0].Key != "bad/0" {
		t.Fatalf("Failed() = %v, want exactly bad/0", fails)
	}
}

// TestCollectTwiceReturnsIdenticalResults is the Merged-aliasing
// regression test: collecting the same key twice must return two equal,
// independent pooled results, and must leave the stored replica-0 result
// unmodified — the old in-place merge double-pooled the replicas into the
// campaign's own copy on the second collection.
func TestCollectTwiceReturnsIdenticalResults(t *testing.T) {
	r := New(Options{BaseSeed: 3, Jobs: 4, ExecuteCell: asCell(fakeResult)})
	const key = "cell"
	r.Submit(Replicas(key, core.RunConfig{Duration: time.Second}, 3)...)

	m1, err := r.Merged(key, 3)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := r.Merged(key, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m1, m2) {
		t.Fatal("collecting the same key twice returned different pooled results")
	}
	if m1.Samples != 9 {
		t.Fatalf("pooled samples %d, want 9 (3 replicas x 3)", m1.Samples)
	}
	r0, err := r.Result(ReplicaKey(key, 0))
	if err != nil {
		t.Fatal(err)
	}
	if r0.Samples != 3 {
		t.Fatalf("stored replica-0 mutated by pooling: %d samples, want 3", r0.Samples)
	}
}

// TestOnCellDoneAfterPublication: the callback fires only after the
// cell's outcome is visible, outside the runner lock — so a callback that
// collects its own key (a progress bar materializing results as they
// land) returns immediately instead of deadlocking on the unpublished
// cell.
func TestOnCellDoneAfterPublication(t *testing.T) {
	var r *Runner
	var mu sync.Mutex
	collected := map[string]uint64{}
	opts := Options{BaseSeed: 2, Jobs: 1, ExecuteCell: asCell(fakeResult),
		OnCellDone: func(key string) {
			res, err := r.Result(key) // deadlocked before publication-first ordering
			if err != nil {
				t.Errorf("callback Result(%s): %v", key, err)
				return
			}
			mu.Lock()
			collected[key] = res.Samples
			mu.Unlock()
		}}
	r = New(opts)
	r.Submit(Replicas("cb", core.RunConfig{Duration: time.Second}, 3)...)
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(collected) != 3 {
		t.Fatalf("callback collected %d cells, want 3", len(collected))
	}
	for k, n := range collected {
		if n != 3 {
			t.Fatalf("callback for %s saw %d samples, want 3", k, n)
		}
	}
}

// TestCancelledCampaignDrainsAndCheckpoints: cancelling mid-campaign stops
// dispatch (queued cells publish as ErrCancelled), drains the running
// cell, and flushes its checkpoint — so nothing already paid for is lost.
func TestCancelledCampaignDrainsAndCheckpoints(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	r := New(Options{BaseSeed: 9, Jobs: 1, Context: ctx, Store: st,
		ExecuteCell: asCell(func(cfg core.RunConfig) *core.Result {
			once.Do(func() {
				close(started)
				<-release
			})
			return fakeResult(cfg)
		})})
	r.Submit(
		Cell{Key: "a/0", Config: core.RunConfig{Duration: 1 * time.Second}},
		Cell{Key: "b/0", Config: core.RunConfig{Duration: 2 * time.Second}},
		Cell{Key: "c/0", Config: core.RunConfig{Duration: 3 * time.Second}},
	)
	<-started // a/0 is executing; b/0 and c/0 are queued
	cancel()
	close(release)

	err = r.Wait()
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("Wait error %v, want ErrCancelled in the chain", err)
	}
	if res, rerr := r.Result("a/0"); rerr != nil || res == nil {
		t.Fatalf("running cell did not drain: (%v, %v)", res, rerr)
	}
	for _, k := range []string{"b/0", "c/0"} {
		if _, rerr := r.Result(k); !errors.Is(rerr, ErrCancelled) {
			t.Fatalf("queued cell %s: error %v, want ErrCancelled", k, rerr)
		}
	}

	cfg := core.RunConfig{Duration: 1 * time.Second}
	cfg.Seed = sim.DeriveSeed(9, "a/0")
	if ck, lerr := st.Load(store.Fingerprint(9, "a/0", cfg)); lerr != nil || ck == nil {
		t.Fatalf("drained cell not checkpointed: (%v, %v)", ck, lerr)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("store holds %d checkpoints, want exactly the drained cell", len(entries))
	}
}

// TestCheckpointRestoreSkipsExecution: re-submitting a finished campaign
// against its store replays every cell from disk — zero executions — and
// the replayed pooled results are identical to the originals.
func TestCheckpointRestoreSkipsExecution(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	execute := func(cfg core.RunConfig) *core.Result {
		calls.Add(1)
		return fakeResult(cfg)
	}
	cells := Replicas("cell", core.RunConfig{Duration: time.Second}, 4)

	r1 := New(Options{BaseSeed: 4, Jobs: 2, Store: st, ExecuteCell: asCell(execute)})
	r1.Submit(cells...)
	if err := r1.Wait(); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 4 {
		t.Fatalf("first run executed %d cells, want 4", calls.Load())
	}

	var restored atomic.Int64
	r2 := New(Options{BaseSeed: 4, Jobs: 2, Store: st, ExecuteCell: asCell(execute),
		OnCellDone: func(string) { restored.Add(1) }})
	r2.Submit(cells...)
	if err := r2.Wait(); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 4 {
		t.Fatalf("resume re-executed checkpointed cells (%d total executions)", calls.Load())
	}
	if restored.Load() != 4 {
		t.Fatalf("OnCellDone fired %d times for restored cells, want 4", restored.Load())
	}

	m1, err := r1.Merged("cell", 4)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := r2.Merged("cell", 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m1, m2) {
		t.Fatal("replayed pooled result differs from the originally computed one")
	}
}

// TestResumeMatchesUninterrupted is the resume determinism guard: a
// campaign killed mid-matrix and resumed from its checkpoint store must
// produce pooled results byte-identical (under the checkpoint encoding)
// to an uninterrupted campaign — at one worker and at eight.
func TestResumeMatchesUninterrupted(t *testing.T) {
	if testing.Short() {
		t.Skip("resume determinism runs real simulation cells; skipped in -short")
	}
	oses := []ospersona.OS{ospersona.NT4, ospersona.Win98}
	classes := []workload.Class{workload.Business, workload.Games}
	base := core.RunConfig{Duration: time.Second}
	const runs = 3 // 2 OSes x 2 classes x 3 replicas = 12 cells

	for _, jobs := range []int{1, 8} {
		t.Run(fmt.Sprintf("jobs=%d", jobs), func(t *testing.T) {
			ref := New(Options{BaseSeed: 13, Jobs: jobs})
			refBy, err := ref.RunMatrix(oses, classes, "resume", base, runs)
			if err != nil {
				t.Fatal(err)
			}

			st, err := store.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var done atomic.Int32
			interrupted := New(Options{BaseSeed: 13, Jobs: jobs, Context: ctx, Store: st,
				OnCellDone: func(string) {
					if done.Add(1) == 2 {
						cancel() // simulate SIGINT two cells into the matrix
					}
				}})
			interrupted.Submit(MatrixCells(oses, classes, "resume", base, runs)...)
			if err := interrupted.Wait(); !errors.Is(err, ErrCancelled) && jobs == 1 {
				t.Fatalf("interrupted campaign Wait: %v, want ErrCancelled", err)
			}
			if jobs == 1 && len(interrupted.Failed()) == 0 {
				t.Fatal("interruption dropped no cells; the resume path is not exercised")
			}

			resumed := New(Options{BaseSeed: 13, Jobs: jobs, Store: st})
			resBy, err := resumed.RunMatrix(oses, classes, "resume", base, runs)
			if err != nil {
				t.Fatal(err)
			}

			for _, o := range oses {
				for _, c := range classes {
					var want, got bytes.Buffer
					if err := core.EncodeResult(&want, refBy[o][c]); err != nil {
						t.Fatal(err)
					}
					if err := core.EncodeResult(&got, resBy[o][c]); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(want.Bytes(), got.Bytes()) {
						t.Errorf("%s: resumed pooled result differs from uninterrupted run",
							MatrixKey(o, c, "resume"))
					}
				}
			}
		})
	}
}
