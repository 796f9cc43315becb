package client

// Worker-loop suite: the lease loops of workerSession (observed through
// how many cells the worker holds whenever it asks for another), the
// checkpoint-backed lease path
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
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
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
	grant    bool // hand out one (blocking) cell
	status   int  // if nonzero: answer this HTTP status instead
	draining bool // answer Draining: true
	release  bool // unblock all in-flight cells while serving this step
}

// leaseAudit is what the scripted coordinator saw of a session.
type leaseAudit struct {
	held        []int // cells leased and not yet completed, at each lease request
	completions int   // completions delivered before the session returned
	err         error // workerSession's return value
}

// scriptedCoordinator runs workerSession against a scripted lease
// endpoint. Granted cells block until a step with release fires. Once the
// script is exhausted the coordinator drains. Every lease request must
// arrive without a body.
func scriptedCoordinator(t *testing.T, cells int, steps []leaseStep) leaseAudit {
	t.Helper()
	var mu sync.Mutex
	var audit leaseAudit
	leased, step := 0, 0
	release := make(chan struct{})
	var releaseOnce sync.Once

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/workers/w1/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("POST /v1/workers/w1/complete", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		audit.completions++
		mu.Unlock()
		writeTestJSON(w, http.StatusOK, map[string]string{"status": "merged"})
	})
	mux.HandleFunc("POST /v1/workers/w1/leases", func(w http.ResponseWriter, r *http.Request) {
		if body, _ := io.ReadAll(r.Body); len(body) != 0 {
			t.Errorf("lease request carried a body: %q", body)
		}
		mu.Lock()
		audit.held = append(audit.held, leased-audit.completions)
		var cur leaseStep
		scripted := step < len(steps)
		if scripted {
			cur = steps[step]
			step++
		}
		if cur.grant {
			leased++
		}
		n := leased
		mu.Unlock()
		if !scripted {
			writeTestJSON(w, http.StatusOK, api.LeaseResponse{Draining: true})
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
		if cur.grant {
			resp.Leases = []api.Lease{workerLease(t, fmt.Sprintf("nt4/business/loop/%d", n))}
		}
		writeTestJSON(w, http.StatusOK, resp)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c, _ := testClient(ts.URL)
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
	var err error
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("workerSession did not return")
	}
	releaseOnce.Do(func() { close(release) }) // scenarios that never release
	mu.Lock()
	defer mu.Unlock()
	audit.err = err
	return audit
}

func writeTestJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// TestWorkerSessionSemaphoreAccounting keeps its name from the slot pool
// the worker once shared between its cells; that pool is gone, and each
// of the Cells lease loops holds at most one cell. The cases check that a
// loop asks for a lease only when it holds no cell (so a lease request
// never finds all Cells cells held), that a drain returns nil only after
// the in-flight cells are delivered, that a failed lease call ends the
// session with its status, and that idle polls keep the session alive.
func TestWorkerSessionSemaphoreAccounting(t *testing.T) {
	for _, tc := range []struct {
		name        string
		cells       int
		steps       []leaseStep
		wantErr     int   // expected *StatusError code, 0 for nil error
		wantHeld    []int // exact leading sequence of cells held at each lease request
		wantComplet int   // completions expected by session end (-1: don't check)
	}{
		{
			// Cells never block here, so a loop that asked again before
			// its completion was delivered would find its cell held.
			name:        "a loop asks only when it holds no cell",
			cells:       1,
			steps:       []leaseStep{{grant: true, release: true}, {grant: true}, {}},
			wantHeld:    []int{0, 0, 0},
			wantComplet: 2,
		},
		{
			// One loop holds its cell and stays silent; the other keeps
			// polling and sees that one cell held, never two.
			name:        "one loop polls while the other holds its cell",
			cells:       2,
			steps:       []leaseStep{{grant: true}, {}, {}, {release: true}},
			wantHeld:    []int{0, 1, 1, 1},
			wantComplet: 1,
		},
		{
			// Draining with cells in flight: the session must wait for
			// their completions before returning nil.
			name:        "drain waits for in-flight cells",
			cells:       3,
			steps:       []leaseStep{{grant: true}, {grant: true}, {draining: true, release: true}},
			wantHeld:    []int{0, 1, 2},
			wantComplet: 2,
		},
		{
			// A lease error ends the session with its status; the other
			// loop's cell still drains before the session returns.
			name:        "failed lease call ends the session",
			cells:       2,
			steps:       []leaseStep{{grant: true}, {status: http.StatusNotFound, release: true}},
			wantErr:     http.StatusNotFound,
			wantHeld:    []int{0, 1},
			wantComplet: -1, // delivery races session teardown; either way is sound
		},
		{
			// Idle polling keeps the session alive until the drain.
			name:        "idle polls keep the session alive",
			cells:       2,
			steps:       []leaseStep{{}, {}, {}},
			wantHeld:    []int{0, 0, 0},
			wantComplet: 0,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			audit := scriptedCoordinator(t, tc.cells, tc.steps)
			if tc.wantErr == 0 {
				if audit.err != nil {
					t.Fatalf("session err = %v, want nil", audit.err)
				}
			} else {
				var se *StatusError
				if !errors.As(audit.err, &se) || se.Code != tc.wantErr {
					t.Fatalf("session err = %v, want status %d", audit.err, tc.wantErr)
				}
			}
			if len(audit.held) < len(tc.wantHeld) {
				t.Fatalf("lease requests saw %v cells held, want at least %d requests", audit.held, len(tc.wantHeld))
			}
			for i, want := range tc.wantHeld {
				if audit.held[i] != want {
					t.Fatalf("lease request %d found %d cells held, want %d (full sequence %v)", i, audit.held[i], want, audit.held)
				}
			}
			for i, h := range audit.held {
				if h >= tc.cells {
					t.Fatalf("lease request %d found %d cells held with %d loops: a loop asked while holding a cell (%v)", i, h, tc.cells, audit.held)
				}
			}
			if tc.wantComplet >= 0 && audit.completions != tc.wantComplet {
				t.Fatalf("completions = %d, want %d", audit.completions, tc.wantComplet)
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
	c, _ := testClient(ts.URL)
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
// cache hit with byte-identical payload; the checkpoint is the payload it
// delivered, so the result was encoded once.
func TestWorkerPopulatesStoreOnMiss(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	l := workerLease(t, "nt4/business/miss/0")
	ts, completes := cacheWorkerCoordinator(t, l, 2)
	defer ts.Close()

	var executions atomic.Int32
	c, _ := testClient(ts.URL)
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
	// One encode serves both: the checkpoint file is the delivered
	// payload and its newline, byte for byte.
	file, err := os.ReadFile(filepath.Join(st.Dir(), l.Fingerprint+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if want := append(bytes.Clone(first.Result), '\n'); !bytes.Equal(file, want) {
		t.Fatalf("checkpoint file is %d bytes, want the %d-byte delivered payload plus one newline", len(file), len(first.Result))
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

	c, _ := testClient(ts.URL)
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
	c, _ := testClient(ts.URL)
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
