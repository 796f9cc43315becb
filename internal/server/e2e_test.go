package server

// End-to-end enforcement of the service's load-bearing guarantee: the
// result stream fetched from the server is byte-identical to the same
// campaign executed locally on the campaign runner — at any worker count,
// on a cold cache and on a warm one — and duplicate concurrent
// submissions of one campaign execute each cell exactly once. These run
// the real simulator (core.Run), just with short virtual durations.

import (
	"bytes"
	"context"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"wdmlat/internal/api"
	"wdmlat/internal/campaign"
	"wdmlat/internal/campaign/store"
	"wdmlat/internal/client"
	"wdmlat/internal/core"
	"wdmlat/internal/metrics"
	"wdmlat/internal/ospersona"
	"wdmlat/internal/workload"
)

// e2eSpec is a small real matrix: both paper OSes × two classes, 150 ms
// of virtual collection per cell.
func e2eSpec() *api.CampaignSpec {
	base := core.RunConfig{Duration: 150 * time.Millisecond}
	cells := campaign.MatrixCells(
		[]ospersona.OS{ospersona.NT4, ospersona.Win98},
		[]workload.Class{workload.Business, workload.Games},
		"default", base, 1)
	spec := &api.CampaignSpec{BaseSeed: 17, Cells: make([]api.CellSpec, len(cells))}
	for i, c := range cells {
		spec.Cells[i] = api.CellSpec{Key: c.Key, Config: c.Config}
	}
	return spec
}

// runLocally executes spec on the campaign runner at the given worker
// count and returns the result stream the server should serve.
func runLocally(t *testing.T, spec *api.CampaignSpec, jobs int) []byte {
	t.Helper()
	run := campaign.New(campaign.Options{BaseSeed: spec.Seed(), Jobs: jobs})
	cells := make([]campaign.Cell, len(spec.Cells))
	for i, c := range spec.Cells {
		cells[i] = campaign.Cell{Key: c.Key, Config: c.Config}
	}
	run.Submit(cells...)
	var buf bytes.Buffer
	for _, c := range spec.Cells {
		res, err := run.Result(c.Key)
		if err != nil {
			t.Fatalf("local cell %q: %v", c.Key, err)
		}
		if err := core.EncodeResult(&buf, res); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func fetchViaClient(t *testing.T, ts *httptest.Server, spec *api.CampaignSpec) (api.Status, []byte) {
	t.Helper()
	c := client.New(ts.URL, client.Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	st, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	st, err = c.Watch(ctx, st.ID, nil)
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	if st.State != api.StateDone {
		t.Fatalf("campaign finished %s: %s", st.State, st.Error)
	}
	data, err := c.Result(ctx, st.ID)
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	return st, data
}

func TestServerResultByteIdenticalToLocalRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the real simulator")
	}
	spec := e2eSpec()
	local1 := runLocally(t, spec, 1)
	local8 := runLocally(t, spec, 8)
	if !bytes.Equal(local1, local8) {
		t.Fatal("local runs at jobs=1 and jobs=8 differ; campaign determinism broken")
	}

	for _, jobs := range []int{1, 8} {
		reg := metrics.NewRegistry()
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		st.Instrument(reg)
		srv := New(Options{Jobs: jobs, Store: st, Metrics: reg})
		ts := httptest.NewServer(srv.Handler())

		// Cold cache: every cell executes.
		status, got := fetchViaClient(t, ts, spec)
		if !bytes.Equal(got, local1) {
			t.Errorf("jobs=%d cold: server bytes differ from local run (%d vs %d bytes)", jobs, len(got), len(local1))
		}
		if status.Cached {
			t.Errorf("jobs=%d cold: status claims cached", jobs)
		}
		if exec := reg.Counter(MetricCellsExec).Value(); exec != uint64(len(spec.Cells)) {
			t.Errorf("jobs=%d cold: executed %d cells, want %d", jobs, exec, len(spec.Cells))
		}

		// Warm cache: a fresh server over the same store must serve the
		// same bytes while executing nothing — every cell replays from
		// the content-addressed cache through the exact codec.
		ts.Close()
		srv.Close()
		reg2 := metrics.NewRegistry()
		st.Instrument(reg2)
		srv2 := New(Options{Jobs: jobs, Store: st, Metrics: reg2})
		ts2 := httptest.NewServer(srv2.Handler())
		status2, got2 := fetchViaClient(t, ts2, spec)
		if !bytes.Equal(got2, local1) {
			t.Errorf("jobs=%d warm: server bytes differ from local run", jobs)
		}
		if !status2.Cached {
			t.Errorf("jobs=%d warm: status not marked cached", jobs)
		}
		if exec := reg2.Counter(MetricCellsExec).Value(); exec != 0 {
			t.Errorf("jobs=%d warm: executed %d cells, want 0", jobs, exec)
		}
		if hits := reg2.Counter(campaign.MetricCheckpointHits).Value(); hits != uint64(len(spec.Cells)) {
			t.Errorf("jobs=%d warm: checkpoint hits = %d, want %d", jobs, hits, len(spec.Cells))
		}
		ts2.Close()
		srv2.Close()
	}
}

func TestConcurrentDuplicateSubmissionsExecuteOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the real simulator")
	}
	spec := &api.CampaignSpec{BaseSeed: 23, Cells: []api.CellSpec{
		{Key: "nt4/business/dup/0", Config: core.RunConfig{OS: ospersona.NT4, Workload: workload.Business, Duration: 100 * time.Millisecond}},
		{Key: "win98/web/dup/0", Config: core.RunConfig{OS: ospersona.Win98, Workload: workload.Web, Duration: 100 * time.Millisecond}},
	}}
	want := runLocally(t, spec, 2)

	reg := metrics.NewRegistry()
	srv := New(Options{Jobs: 2, Metrics: reg})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const submitters = 4
	var wg sync.WaitGroup
	results := make([][]byte, submitters)
	ids := make([]string, submitters)
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := client.New(ts.URL, client.Options{})
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			st, err := c.Submit(ctx, spec)
			if err != nil {
				t.Errorf("submitter %d: %v", i, err)
				return
			}
			ids[i] = st.ID
			if st, err = c.Watch(ctx, st.ID, nil); err != nil || st.State != api.StateDone {
				t.Errorf("submitter %d: watch: %v %+v", i, err, st)
				return
			}
			if results[i], err = c.Result(ctx, st.ID); err != nil {
				t.Errorf("submitter %d: result: %v", i, err)
			}
		}(i)
	}
	wg.Wait()

	for i := 1; i < submitters; i++ {
		if ids[i] != ids[0] {
			t.Fatalf("submitter %d got id %s, submitter 0 got %s", i, ids[i], ids[0])
		}
	}
	for i, data := range results {
		if !bytes.Equal(data, want) {
			t.Errorf("submitter %d: result differs from local bytes", i)
		}
	}
	// The decisive counters: each cell simulated exactly once, all other
	// submissions were dedup joins.
	if exec := reg.Counter(MetricCellsExec).Value(); exec != uint64(len(spec.Cells)) {
		t.Errorf("%s = %d, want %d (exactly one execution)", MetricCellsExec, exec, len(spec.Cells))
	}
	if sub := reg.Counter(MetricSubmitted).Value(); sub != 1 {
		t.Errorf("%s = %d, want 1", MetricSubmitted, sub)
	}
	if ded := reg.Counter(MetricDeduped).Value(); ded != submitters-1 {
		t.Errorf("%s = %d, want %d", MetricDeduped, ded, submitters-1)
	}
}

// TestFinishedResultKeptAtExactSize: a finished campaign's answer, which
// the server keeps for its lifetime, is held at its exact length rather
// than in the buffer the stream grew by doubling, and it is the bytes a
// local run of the same campaign writes.
func TestFinishedResultKeptAtExactSize(t *testing.T) {
	spec := specN(29, 37)
	srv := New(Options{Jobs: 2, Execute: fakeResult})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	id := decodeStatus(t, postSpec(t, ts, spec)).ID
	waitState(t, ts, id, api.StateDone)

	srv.mu.Lock()
	j := srv.jobs[id]
	srv.mu.Unlock()
	j.mu.Lock()
	result := j.result
	j.mu.Unlock()
	if cap(result) != len(result) {
		t.Errorf("finished result holds %d bytes in a %d-byte slice, want its exact size", len(result), cap(result))
	}
	cells := make([]campaign.Cell, len(spec.Cells))
	for i, c := range spec.Cells {
		cells[i] = campaign.Cell{Key: c.Key, Config: c.Config}
	}
	exec := func(_ string, cfg core.RunConfig) (*core.Result, error) { return fakeResult(cfg), nil }
	if want := campaignBytes(t, cells, spec.Seed(), 1, exec); !bytes.Equal(result, want) {
		t.Errorf("finished result is %d bytes, want the local run's %d", len(result), len(want))
	}
}
