package campaign

// Tests of the ExecuteCell seam — the hook a distributed coordinator plugs
// into: key-aware, error-capable, and failure-isolated exactly like the
// in-process executor.

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"wdmlat/internal/core"
	"wdmlat/internal/sim"
)

// TestExecuteCellReceivesKeyAndDerivedSeed: the seam sees the cell's key
// and a config whose seed was already derived from (base seed, key) — the
// exact identity a coordinator fingerprints a lease with.
func TestExecuteCellReceivesKeyAndDerivedSeed(t *testing.T) {
	var mu sync.Mutex
	seen := map[string]uint64{}
	r := New(Options{
		BaseSeed: 11,
		Jobs:     4,
		ExecuteCell: func(key string, cfg core.RunConfig) (*core.Result, error) {
			mu.Lock()
			seen[key] = cfg.Seed
			mu.Unlock()
			return &core.Result{Config: cfg}, nil
		},
	})
	keys := []string{"a/0", "a/1", "b/0"}
	for _, k := range keys {
		r.Submit(Cell{Key: k})
	}
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if got, want := seen[k], sim.DeriveSeed(11, k); got != want {
			t.Errorf("cell %q executed with seed %d, want derived %d", k, got, want)
		}
	}
}

// TestExecuteCellSupersedesExecute: a set ExecuteCell replaces core.Run —
// the cell's result is the seam's own. The name dates from when Options
// also had a config-only Execute seam; ExecuteCell is now the only one,
// and the name is kept so the test's history stays traceable.
func TestExecuteCellSupersedesExecute(t *testing.T) {
	want := &core.Result{OSName: "from-seam"}
	r := New(Options{
		ExecuteCell: func(key string, cfg core.RunConfig) (*core.Result, error) {
			return want, nil
		},
	})
	r.Submit(Cell{Key: "x"})
	got, err := r.Result("x")
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("collected %q, want the ExecuteCell result: core.Run ran instead", got.OSName)
	}
}

// TestExecuteCellErrorFailsOnlyThatCell: an executor error is published as
// that cell's failure — sibling cells complete, Wait aggregates, and the
// campaign never deadlocks or dies.
func TestExecuteCellErrorFailsOnlyThatCell(t *testing.T) {
	boom := errors.New("worker fleet drained")
	r := New(Options{
		Jobs: 2,
		ExecuteCell: func(key string, cfg core.RunConfig) (*core.Result, error) {
			if key == "bad" {
				return nil, boom
			}
			return &core.Result{Config: cfg}, nil
		},
	})
	r.Submit(Cell{Key: "good"}, Cell{Key: "bad"}, Cell{Key: "also-good"})
	if _, err := r.Result("good"); err != nil {
		t.Fatalf("healthy cell failed: %v", err)
	}
	if _, err := r.Result("bad"); !errors.Is(err, boom) {
		t.Fatalf("failed cell error = %v, want %v", err, boom)
	}
	err := r.Wait()
	if err == nil || !strings.Contains(err.Error(), "worker fleet drained") {
		t.Fatalf("Wait() = %v, want aggregate containing the executor error", err)
	}
	failed := r.Failed()
	if len(failed) != 1 || failed[0].Key != "bad" {
		t.Fatalf("Failed() = %+v, want exactly the bad cell", failed)
	}
}

// TestExecuteCellPanicIsolated: a panicking remote executor is recovered
// into a PanicError like any local cell.
func TestExecuteCellPanicIsolated(t *testing.T) {
	r := New(Options{
		ExecuteCell: func(key string, cfg core.RunConfig) (*core.Result, error) {
			panic("lease table corrupted")
		},
	})
	r.Submit(Cell{Key: "x"})
	_, err := r.Result("x")
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want PanicError, got %v", err)
	}
}
