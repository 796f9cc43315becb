package client

// Worker-loop suite: semaphore accounting in workerSession (observed
// through the Max each lease request carries — the only externally
// visible shadow of the slot pool), the checkpoint-backed lease path
// (cache hits skip the simulator and are flagged to the coordinator),
// RunWorker's survival of a coordinator restart, and its handling of a
// completion the coordinator no longer wants.
//
// Every test scripts the coordinator side with an httptest server; the
// worker under test is the real client code with a recorded clock.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wdmlat/internal/api"
	"wdmlat/internal/campaign/store"
	"wdmlat/internal/core"
	"wdmlat/internal/ospersona"
	"wdmlat/internal/sim"
	"wdmlat/internal/workload"
)

// workerLease fabricates a lease that passes Verify: its fingerprint is
// derived exactly as the coordinator derives it.
func workerLease(t *testing.T, key string) api.Lease {
	t.Helper()
	cfg := core.RunConfig{OS: ospersona.NT4, Workload: workload.Business, Duration: time.Second}
	cfg.Seed = sim.DeriveSeed(7, key)
	return api.Lease{
		Fingerprint: store.Fingerprint(7, key, cfg),
		BaseSeed:    7,
		Key:         key,
		Config:      cfg,
	}
}

func workerFakeResult(cfg core.RunConfig) *core.Result {
	return &core.Result{Config: cfg, OSName: "workerfake", Samples: cfg.Seed%997 + 1}
}

// leaseStep scripts one lease response from the fake coordinator.
type leaseStep struct {
	grant    int  // leases to hand out (blocking cells)
	status   int  // if nonzero: answer this HTTP status instead
	draining bool // answer Draining: true
	release  bool // unblock all in-flight cells while serving this step
}

// scriptedCoordinator runs workerSession against a scripted lease
// endpoint. Granted cells block until a step with release fires. Once the
// script is exhausted, the coordinator grants nothing until a request
// arrives asking for the full slot count — proof no slot leaked — and
// then drains; a leaked slot therefore shows up as a test timeout, a
// double-released one as Max exceeding the configured cell count.
func scriptedCoordinator(t *testing.T, cells int, steps []leaseStep) (maxs []int, completions int, err error) {
	t.Helper()
	var mu sync.Mutex
	var recordedMaxs []int
	completed := 0
	step := 0
	release := make(chan struct{})
	var releaseOnce sync.Once

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/workers/w1/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("POST /v1/workers/w1/complete", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		completed++
		mu.Unlock()
		writeTestJSON(w, http.StatusOK, map[string]string{"status": "merged"})
	})
	mux.HandleFunc("POST /v1/workers/w1/leases", func(w http.ResponseWriter, r *http.Request) {
		var req api.LeaseRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("decoding lease request: %v", err)
		}
		mu.Lock()
		recordedMaxs = append(recordedMaxs, req.Max)
		var cur leaseStep
		scripted := step < len(steps)
		if scripted {
			cur = steps[step]
			step++
		}
		n := len(recordedMaxs)
		mu.Unlock()
		if !scripted {
			// Script exhausted: drain only once every slot is home.
			if req.Max == cells {
				writeTestJSON(w, http.StatusOK, api.LeaseResponse{Draining: true})
			} else {
				writeTestJSON(w, http.StatusOK, api.LeaseResponse{})
			}
			return
		}
		if cur.release {
			releaseOnce.Do(func() { close(release) })
		}
		if cur.status != 0 {
			writeTestJSON(w, cur.status, api.Error{Message: "scripted failure"})
			return
		}
		resp := api.LeaseResponse{Draining: cur.draining}
		for i := 0; i < cur.grant; i++ {
			resp.Leases = append(resp.Leases, workerLease(t, fmt.Sprintf("nt4/business/sem/%d-%d", n, i)))
		}
		writeTestJSON(w, http.StatusOK, resp)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c, _ := testClient(ts.URL, 2)
	// A huge TTL keeps the heartbeat ticker silent for the test's
	// lifetime; PollMillis 1 keeps idle re-polls (recorded, not slept)
	// instant.
	reg := api.RegisterResponse{WorkerID: "w1", LeaseTTLMillis: 3_600_000, PollMillis: 1}
	opts := WorkerOptions{
		Cells: cells,
		Execute: func(cfg core.RunConfig) *core.Result {
			<-release
			return workerFakeResult(cfg)
		},
	}
	done := make(chan error, 1)
	go func() { done <- c.workerSession(context.Background(), reg, opts) }()
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("workerSession did not return: a leaked slot keeps Max below the drain threshold forever")
	}
	releaseOnce.Do(func() { close(release) }) // scenarios that never release
	mu.Lock()
	defer mu.Unlock()
	return recordedMaxs, completed, err
}

func writeTestJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// TestWorkerSessionSemaphoreAccounting drives the slot pool through
// partial grants, zero grants, lease errors and the drain path, asserting
// no slot is ever leaked (Max returns to the full cell count) or
// double-released (Max never exceeds it).
func TestWorkerSessionSemaphoreAccounting(t *testing.T) {
	for _, tc := range []struct {
		name        string
		cells       int
		steps       []leaseStep
		wantErr     int   // expected *StatusError code, 0 for nil error
		wantPrefix  []int // exact leading Max sequence
		wantComplet int   // completions expected by session end (-1: don't check)
	}{
		{
			// Ask 3, get 1: the two unused reservations must return to the
			// pool (next ask is 2, not 0), and once the cell finishes every
			// ask is 3 again.
			name:        "partial grant returns unused slots",
			cells:       3,
			steps:       []leaseStep{{grant: 1}, {grant: 0}, {grant: 0, release: true}},
			wantPrefix:  []int{3, 2, 2},
			wantComplet: 1,
		},
		{
			// A lease error must hand back every reserved slot before the
			// session dies; the in-flight cell still drains through the
			// deferred wait.
			name:        "lease error releases reserved slots",
			cells:       3,
			steps:       []leaseStep{{grant: 1}, {status: http.StatusNotFound, release: true}},
			wantErr:     http.StatusNotFound,
			wantPrefix:  []int{3, 2},
			wantComplet: -1, // delivery races session teardown; either way is sound
		},
		{
			// Draining with a cell in flight: the session must wait for the
			// cell's completion before returning nil.
			name:        "drain waits for in-flight cells",
			cells:       2,
			steps:       []leaseStep{{grant: 1}, {draining: true, release: true}},
			wantPrefix:  []int{2, 1},
			wantComplet: 1,
		},
		{
			// Idle polling must not bleed slots: every empty grant returns
			// everything it reserved.
			name:        "zero grants keep the pool full",
			cells:       2,
			steps:       []leaseStep{{grant: 0}, {grant: 0}, {grant: 0}},
			wantPrefix:  []int{2, 2, 2},
			wantComplet: 0,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			maxs, completions, err := scriptedCoordinator(t, tc.cells, tc.steps)
			if tc.wantErr == 0 {
				if err != nil {
					t.Fatalf("session err = %v, want nil", err)
				}
			} else {
				var se *StatusError
				if !errors.As(err, &se) || se.Code != tc.wantErr {
					t.Fatalf("session err = %v, want status %d", err, tc.wantErr)
				}
			}
			if len(maxs) < len(tc.wantPrefix) {
				t.Fatalf("lease requests %v, want at least %d", maxs, len(tc.wantPrefix))
			}
			for i, want := range tc.wantPrefix {
				if maxs[i] != want {
					t.Fatalf("lease request %d asked Max=%d, want %d (full sequence %v)", i, maxs[i], want, maxs)
				}
			}
			for i, m := range maxs {
				if m > tc.cells {
					t.Fatalf("lease request %d asked Max=%d > %d cells: a slot was double-released (%v)", i, m, tc.cells, maxs)
				}
			}
			if tc.wantComplet >= 0 && completions != tc.wantComplet {
				t.Fatalf("completions = %d, want %d", completions, tc.wantComplet)
			}
		})
	}
}

// cacheWorkerCoordinator scripts a coordinator that grants the same lease
// `grants` times, then drains. It records every completion request.
func cacheWorkerCoordinator(t *testing.T, l api.Lease, grants int) (*httptest.Server, *[]api.CompleteRequest) {
	t.Helper()
	var mu sync.Mutex
	var completes []api.CompleteRequest
	granted := 0
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/workers", func(w http.ResponseWriter, r *http.Request) {
		writeTestJSON(w, http.StatusOK, api.RegisterResponse{WorkerID: "w1", LeaseTTLMillis: 3_600_000, PollMillis: 1})
	})
	mux.HandleFunc("POST /v1/workers/w1/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("POST /v1/workers/w1/leases", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if granted < grants {
			granted++
			writeTestJSON(w, http.StatusOK, api.LeaseResponse{Leases: []api.Lease{l}})
			return
		}
		writeTestJSON(w, http.StatusOK, api.LeaseResponse{Draining: true})
	})
	mux.HandleFunc("POST /v1/workers/w1/complete", func(w http.ResponseWriter, r *http.Request) {
		var req api.CompleteRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("decoding completion: %v", err)
		}
		mu.Lock()
		completes = append(completes, req)
		mu.Unlock()
		writeTestJSON(w, http.StatusOK, map[string]string{"status": "merged"})
	})
	return httptest.NewServer(mux), &completes
}

// TestWorkerAnswersLeaseFromCheckpointStore: a fingerprint already in the
// worker's store is delivered without touching the simulator, flagged
// Cached, and byte-identical to the canonical encoding of the stored
// result.
func TestWorkerAnswersLeaseFromCheckpointStore(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	l := workerLease(t, "nt4/business/cached/0")
	res := workerFakeResult(l.Config)
	if err := st.Save(l.Fingerprint, res); err != nil {
		t.Fatal(err)
	}
	ts, completes := cacheWorkerCoordinator(t, l, 1)
	defer ts.Close()

	var executions atomic.Int32
	c, _ := testClient(ts.URL, 3)
	err = c.RunWorker(context.Background(), WorkerOptions{
		Store: st,
		Execute: func(cfg core.RunConfig) *core.Result {
			executions.Add(1)
			return workerFakeResult(cfg)
		},
	})
	if err != nil {
		t.Fatalf("RunWorker: %v", err)
	}
	if n := executions.Load(); n != 0 {
		t.Fatalf("simulator ran %d times for a cached cell, want 0", n)
	}
	if len(*completes) != 1 {
		t.Fatalf("completions = %d, want 1", len(*completes))
	}
	req := (*completes)[0]
	if !req.Cached {
		t.Fatal("cache-served completion not flagged Cached")
	}
	want, err := api.EncodeCellResult(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(req.Result, want) {
		t.Fatalf("cached payload differs from canonical encoding:\n%s\nvs\n%s", req.Result, want)
	}
}

// TestWorkerPopulatesStoreOnMiss: a miss executes once and checkpoints the
// result, so the same lease re-granted (a straggler re-dispatch) is a
// cache hit with byte-identical payload.
func TestWorkerPopulatesStoreOnMiss(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	l := workerLease(t, "nt4/business/miss/0")
	ts, completes := cacheWorkerCoordinator(t, l, 2)
	defer ts.Close()

	var executions atomic.Int32
	c, _ := testClient(ts.URL, 3)
	err = c.RunWorker(context.Background(), WorkerOptions{
		Store: st,
		Execute: func(cfg core.RunConfig) *core.Result {
			executions.Add(1)
			return workerFakeResult(cfg)
		},
	})
	if err != nil {
		t.Fatalf("RunWorker: %v", err)
	}
	if n := executions.Load(); n != 1 {
		t.Fatalf("simulator ran %d times, want exactly 1 (second grant from cache)", n)
	}
	if len(*completes) != 2 {
		t.Fatalf("completions = %d, want 2", len(*completes))
	}
	first, second := (*completes)[0], (*completes)[1]
	if first.Cached {
		t.Fatal("first completion flagged Cached on an empty store")
	}
	if !second.Cached {
		t.Fatal("re-granted completion not served from the checkpoint store")
	}
	if !bytes.Equal(first.Result, second.Result) {
		t.Fatal("cached redelivery is not byte-identical to the executed delivery")
	}
	if saved, err := st.Load(l.Fingerprint); err != nil || saved == nil {
		t.Fatalf("executed result not checkpointed: (%v, %v)", saved, err)
	}
}

// TestRunWorkerSurvivesCoordinatorRestart: an established worker whose
// session dies on transport failures (coordinator down) re-registers and
// keeps working, rather than exiting and stranding the fleet.
func TestRunWorkerSurvivesCoordinatorRestart(t *testing.T) {
	var mu sync.Mutex
	registrations := 0
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/workers", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		registrations++
		n := registrations
		mu.Unlock()
		writeTestJSON(w, http.StatusOK, api.RegisterResponse{
			WorkerID: fmt.Sprintf("w%d", n), LeaseTTLMillis: 3_600_000, PollMillis: 1,
		})
	})
	mux.HandleFunc("POST /v1/workers/{id}/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("POST /v1/workers/{id}/leases", func(w http.ResponseWriter, r *http.Request) {
		// The first identity's session dies on persistent 500s (the
		// "coordinator restart" exhausts the client's retry budget); the
		// re-registered identity finds a healthy coordinator.
		if r.PathValue("id") == "w1" {
			writeTestJSON(w, http.StatusInternalServerError, api.Error{Message: "coordinator went down"})
			return
		}
		writeTestJSON(w, http.StatusOK, api.LeaseResponse{Draining: true})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c, _ := testClient(ts.URL, 2)
	err := c.RunWorker(context.Background(), WorkerOptions{
		Execute: func(cfg core.RunConfig) *core.Result { return workerFakeResult(cfg) },
	})
	if err != nil {
		t.Fatalf("RunWorker = %v, want nil (drained after re-registering)", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if registrations != 2 {
		t.Fatalf("registrations = %d, want 2 (initial + post-restart)", registrations)
	}
}

// TestRunWorkerDropsGoneCompletion: a 410 on /complete means the
// coordinator holds no pending or leased cell for the fingerprint — it
// already merged, its campaign was cancelled, or it was leased before a
// restart. The worker drops the result and carries on in the same
// session: OnCell sees no error, it never re-registers, and it leases
// again.
func TestRunWorkerDropsGoneCompletion(t *testing.T) {
	var mu sync.Mutex
	registrations, completions, granted := 0, 0, 0
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/workers", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		registrations++
		mu.Unlock()
		writeTestJSON(w, http.StatusOK, api.RegisterResponse{WorkerID: "w1", LeaseTTLMillis: 3_600_000, PollMillis: 1})
	})
	mux.HandleFunc("POST /v1/workers/w1/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("POST /v1/workers/w1/leases", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if granted < 2 {
			granted++
			writeTestJSON(w, http.StatusOK, api.LeaseResponse{Leases: []api.Lease{workerLease(t, fmt.Sprintf("nt4/business/gone/%d", granted))}})
			return
		}
		writeTestJSON(w, http.StatusOK, api.LeaseResponse{Draining: true})
	})
	mux.HandleFunc("POST /v1/workers/w1/complete", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		completions++
		mu.Unlock()
		writeTestJSON(w, http.StatusGone, api.Error{Message: "no pending or leased cell"})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	var cellErrs []error
	c, _ := testClient(ts.URL, 2)
	err := c.RunWorker(context.Background(), WorkerOptions{
		Execute: workerFakeResult,
		OnCell: func(_ string, err error) {
			mu.Lock()
			cellErrs = append(cellErrs, err)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatalf("RunWorker = %v, want nil (drained)", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if registrations != 1 {
		t.Errorf("registrations = %d, want 1: a 410 on /complete must not end the session", registrations)
	}
	if completions != 2 || len(cellErrs) != 2 {
		t.Fatalf("completions = %d, OnCell calls = %d, want 2 each", completions, len(cellErrs))
	}
	for i, err := range cellErrs {
		if err != nil {
			t.Errorf("OnCell error for cell %d = %v, want nil", i, err)
		}
	}
}
