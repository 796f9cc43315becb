package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wdmlat/internal/api"
	"wdmlat/internal/campaign/store"
	"wdmlat/internal/client"
	"wdmlat/internal/core"
	"wdmlat/internal/metrics"
	"wdmlat/internal/sim"
	"wdmlat/internal/stats"
)

// fakeResult builds a tiny but codec-complete Result for a config, pure in
// the config (so the determinism contract holds for fakes too).
func fakeResult(cfg core.RunConfig) *core.Result {
	h := stats.NewHistogram(sim.Freq(1e6))
	h.Add(sim.Cycles(cfg.Seed%97) + 1)
	return &core.Result{Config: cfg, OSName: "fake", Samples: cfg.Seed, DpcInt: h}
}

// blockingExec returns an executor that blocks every cell until release is
// closed, plus the release func.
func blockingExec() (func(core.RunConfig) *core.Result, func()) {
	release := make(chan struct{})
	var once sync.Once
	return func(cfg core.RunConfig) *core.Result {
		<-release
		return fakeResult(cfg)
	}, func() { once.Do(func() { close(release) }) }
}

func specN(seed uint64, n int) *api.CampaignSpec {
	s := &api.CampaignSpec{BaseSeed: seed}
	for i := 0; i < n; i++ {
		s.Cells = append(s.Cells, api.CellSpec{
			Key:    fmt.Sprintf("cell/%d", i),
			Config: core.RunConfig{Duration: time.Second},
		})
	}
	return s
}

func postSpec(t *testing.T, ts *httptest.Server, spec *api.CampaignSpec) *http.Response {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeStatus(t *testing.T, resp *http.Response) api.Status {
	t.Helper()
	defer resp.Body.Close()
	var st api.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding status: %v", err)
	}
	return st
}

func waitState(t *testing.T, ts *httptest.Server, id, want string) api.Status {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/campaigns/" + id)
		if err != nil {
			t.Fatal(err)
		}
		st := decodeStatus(t, resp)
		if st.State == want {
			return st
		}
		if api.TerminalState(st.State) {
			t.Fatalf("campaign reached terminal state %q (err %q), want %q", st.State, st.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("campaign never reached state %q", want)
	return api.Status{}
}

func TestOverloadReturns429WithoutBlockingAccept(t *testing.T) {
	reg := metrics.NewRegistry()
	exec, release := blockingExec()
	s := New(Options{Jobs: 1, QueueLimit: 1, Concurrency: 1, Metrics: reg, Execute: exec})
	defer func() { release(); s.Close() }()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// First campaign occupies the executor, second fills the queue.
	idA := decodeStatus(t, postSpec(t, ts, specN(1, 1))).ID
	waitState(t, ts, idA, api.StateRunning)
	respB := postSpec(t, ts, specN(2, 1))
	if respB.StatusCode != http.StatusAccepted {
		t.Fatalf("second submission: %d", respB.StatusCode)
	}
	respB.Body.Close()

	// Third must bounce immediately with 429 + Retry-After.
	start := time.Now()
	respC := postSpec(t, ts, specN(3, 1))
	if respC.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded submission: %d, want 429", respC.StatusCode)
	}
	if ra := respC.Header.Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", ra)
	}
	respC.Body.Close()
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("429 took %v; the accept loop blocked on simulation work", took)
	}

	// The accept loop stays responsive while the executor is wedged.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz during overload: %v %v", resp, err)
	}
	resp.Body.Close()

	if got := reg.Counter(MetricRejected).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", MetricRejected, got)
	}

	release()
	waitState(t, ts, idA, api.StateDone)
}

func TestDuplicateSubmissionsShareOneJob(t *testing.T) {
	reg := metrics.NewRegistry()
	exec, release := blockingExec()
	s := New(Options{Jobs: 2, Metrics: reg, Execute: exec})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := specN(9, 3)
	first := decodeStatus(t, postSpec(t, ts, spec))
	waitState(t, ts, first.ID, api.StateRunning)
	second := decodeStatus(t, postSpec(t, ts, spec))
	if second.ID != first.ID {
		t.Fatalf("identical specs got different jobs: %s vs %s", first.ID, second.ID)
	}
	if got := reg.Counter(MetricDeduped).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", MetricDeduped, got)
	}
	if got := reg.Counter(MetricSubmitted).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", MetricSubmitted, got)
	}
	release()
	waitState(t, ts, first.ID, api.StateDone)
	if got := reg.Counter(MetricCellsExec).Value(); got != 3 {
		t.Errorf("%s = %d, want 3 (one execution of each cell)", MetricCellsExec, got)
	}
	// And a post-completion duplicate joins the retained job.
	third := decodeStatus(t, postSpec(t, ts, spec))
	if third.ID != first.ID || third.State != api.StateDone {
		t.Fatalf("post-completion duplicate: %+v", third)
	}
	if got := reg.Counter(MetricCellsExec).Value(); got != 3 {
		t.Errorf("completed-job dedup re-executed cells: %s = %d", MetricCellsExec, got)
	}
}

func TestCancelEndpoint(t *testing.T) {
	reg := metrics.NewRegistry()
	exec, release := blockingExec()
	s := New(Options{Jobs: 1, Metrics: reg, Execute: exec})
	defer func() { release(); s.Close() }()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Two cells on one worker: cell 0 runs (blocked), cell 1 is queued
	// inside the campaign and will be dropped by cancellation.
	id := decodeStatus(t, postSpec(t, ts, specN(4, 2))).ID
	waitState(t, ts, id, api.StateRunning)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/campaigns/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: %d", resp.StatusCode)
	}
	resp.Body.Close()

	release() // let the running cell drain
	st := waitState(t, ts, id, api.StateCancelled)
	if st.Error == "" {
		t.Error("cancelled status has no error detail")
	}
	if got := reg.Counter(MetricCancelled).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", MetricCancelled, got)
	}

	// The result endpoint reports the terminal failure, not 409.
	rresp, err := http.Get(ts.URL + "/v1/campaigns/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer rresp.Body.Close()
	if rresp.StatusCode != http.StatusGone {
		t.Errorf("result of cancelled campaign: %d, want 410", rresp.StatusCode)
	}
}

// TestResubmitAfterCancelAdmitsAfresh: a DELETE-cancelled job is not the
// campaign's outcome, so submitting the same spec again admits a new job
// under the same id, and that job runs to done.
func TestResubmitAfterCancelAdmitsAfresh(t *testing.T) {
	reg := metrics.NewRegistry()
	exec, release := blockingExec()
	s := New(Options{Jobs: 1, Metrics: reg, Execute: exec})
	defer func() { release(); s.Close() }()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := specN(11, 2)
	id := decodeStatus(t, postSpec(t, ts, spec)).ID
	waitState(t, ts, id, api.StateRunning)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/campaigns/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	release()
	waitState(t, ts, id, api.StateCancelled)

	resp = postSpec(t, ts, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmission of a cancelled campaign: %d, want 202 (admitted afresh)", resp.StatusCode)
	}
	if st := decodeStatus(t, resp); st.ID != id || st.State == api.StateCancelled {
		t.Fatalf("resubmission = %+v, want a live job for %s", st, id)
	}
	waitState(t, ts, id, api.StateDone)
	for name, want := range map[string]uint64{MetricSubmitted: 2, MetricDeduped: 0, MetricCancelled: 1, MetricCompleted: 1} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestCancelFleetJobReportsCancelled: DELETE on a fleet-mode campaign whose
// cells are waiting on the coordinator (no worker ever leases them) must
// finish state=cancelled, not failed — ExecuteRemote surfaces the bare ctx
// error, and runJob must still classify it as cancellation.
func TestCancelFleetJobReportsCancelled(t *testing.T) {
	reg := metrics.NewRegistry()
	s := New(Options{Jobs: 2, Metrics: reg, Fleet: &CoordinatorOptions{LeaseTTL: time.Minute}})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	id := decodeStatus(t, postSpec(t, ts, specN(9, 2))).ID
	waitState(t, ts, id, api.StateRunning)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/campaigns/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: %d", resp.StatusCode)
	}
	resp.Body.Close()

	// waitState fails fast on any other terminal state, so a job
	// misreported as failed is caught here, not by timeout.
	waitState(t, ts, id, api.StateCancelled)
	if got := reg.Counter(MetricCancelled).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", MetricCancelled, got)
	}
	if got := reg.Counter(MetricFailed).Value(); got != 0 {
		t.Errorf("%s = %d, want 0", MetricFailed, got)
	}
}

func TestCloseDrainsRunningCellsThroughStore(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	st.Instrument(reg)
	exec, release := blockingExec()
	// The campaign reports running before its first cell reaches the
	// executor; Close must come after, or it cancels a cell that never ran.
	entered := make(chan struct{}, 1)
	enter := func(cfg core.RunConfig) *core.Result {
		select {
		case entered <- struct{}{}:
		default:
		}
		return exec(cfg)
	}
	s := New(Options{Jobs: 1, Metrics: reg, Store: st, Execute: enter})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	id := decodeStatus(t, postSpec(t, ts, specN(5, 2))).ID
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("no cell reached the executor")
	}

	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned while a cell was still running (no drain)")
	case <-time.After(100 * time.Millisecond):
	}
	release()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close never returned after the running cell drained")
	}

	// The running cell drained through the checkpoint path.
	if got := reg.Counter("store_writes").Value(); got != 1 {
		t.Errorf("store_writes = %d, want 1 (the drained running cell)", got)
	}
	// OnCellDone fires for the drained running cell only (the runner
	// deliberately skips cells dropped by cancellation), so Done counts
	// exactly the work that really finished.
	st2 := waitState(t, ts, id, api.StateCancelled)
	if st2.Done != 1 {
		t.Errorf("published cells = %d, want 1 (the drained running cell)", st2.Done)
	}

	// Submissions after Close are refused.
	resp := postSpec(t, ts, specN(6, 1))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-Close submission: %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestBadRequests(t *testing.T) {
	s := New(Options{Execute: fakeResult})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for name, tc := range map[string]struct {
		body string
		want int
	}{
		"invalid json":   {`{`, http.StatusBadRequest},
		"no cells":       {`{"base_seed":1,"cells":[]}`, http.StatusBadRequest},
		"empty key":      {`{"cells":[{"key":"","config":{}}]}`, http.StatusBadRequest},
		"duplicate keys": {`{"cells":[{"key":"a","config":{}},{"key":"a","config":{}}]}`, http.StatusBadRequest},
		"unknown field":  {`{"bogus":1,"cells":[{"key":"a","config":{}}]}`, http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.want {
			t.Errorf("%s: got %d, want %d", name, resp.StatusCode, tc.want)
		}
		resp.Body.Close()
	}

	// Too many cells.
	resp := postSpec(t, ts, specN(1, maxCells+1))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("over maxCells: got %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	// Unknown ids.
	for _, path := range []string{"/v1/campaigns/nope", "/v1/campaigns/nope/result", "/v1/campaigns/nope/events"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: got %d, want 404", path, resp.StatusCode)
		}
		resp.Body.Close()
	}

	// Result before completion is 409.
	exec, release := blockingExec()
	s2 := New(Options{Jobs: 1, Execute: exec})
	defer func() { release(); s2.Close() }()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	id := decodeStatus(t, postSpec(t, ts2, specN(7, 1))).ID
	waitState(t, ts2, id, api.StateRunning)
	rresp, err := http.Get(ts2.URL + "/v1/campaigns/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	if rresp.StatusCode != http.StatusConflict {
		t.Errorf("early result fetch: got %d, want 409", rresp.StatusCode)
	}
	rresp.Body.Close()
}

func TestEventsStreamCarriesFullLifecycle(t *testing.T) {
	s := New(Options{Jobs: 2, Execute: fakeResult})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	id := decodeStatus(t, postSpec(t, ts, specN(8, 2))).ID
	waitState(t, ts, id, api.StateDone)

	events := readEvents(t, ts, id, 0)
	// queued, running, 2×cell, done — dense seqs, terminal last.
	if len(events) != 5 {
		t.Fatalf("got %d events, want 5: %+v", len(events), events)
	}
	for i, ev := range events {
		if ev.Seq != i {
			t.Errorf("event %d has seq %d", i, ev.Seq)
		}
	}
	if events[0].State != api.StateQueued || events[1].State != api.StateRunning {
		t.Errorf("lifecycle head = %+v", events[:2])
	}
	last := events[len(events)-1]
	if last.Type != api.EventState || last.State != api.StateDone || last.Done != 2 {
		t.Errorf("terminal event = %+v", last)
	}

	// Resume from the middle replays only the tail.
	if tail := readEvents(t, ts, id, 4); len(tail) != 1 || tail[0].Seq != 4 {
		t.Errorf("from=4 returned %+v", tail)
	}
}

// readEvents reads a campaign's whole event stream from seq from. It fails
// the test if the stream has not ended within 5 s.
func readEvents(t *testing.T, ts *httptest.Server, id string, from int) []api.Event {
	t.Helper()
	hc := &http.Client{Timeout: 5 * time.Second}
	resp, err := hc.Get(fmt.Sprintf("%s/v1/campaigns/%s/events?from=%d", ts.URL, id, from))
	if err != nil {
		t.Fatalf("events from %d: %v", from, err)
	}
	defer resp.Body.Close()
	var events []api.Event
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var ev api.Event
		if err := dec.Decode(&ev); err != nil {
			t.Fatalf("decoding event: %v", err)
		}
		events = append(events, ev)
	}
	return events
}

// TestEventsPastTheEndOfAFinishedJob: a stream that starts past the end
// of a finished campaign's log answers at once with the terminal event,
// instead of waiting on a job that never changes again.
func TestEventsPastTheEndOfAFinishedJob(t *testing.T) {
	s := New(Options{Jobs: 2, Execute: fakeResult})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	id := decodeStatus(t, postSpec(t, ts, specN(9, 3))).ID
	waitState(t, ts, id, api.StateDone)

	// queued, running, 3×cell, done: the done event is seq 5.
	events := readEvents(t, ts, id, 100)
	if len(events) != 1 || events[0].Seq != 5 || events[0].State != api.StateDone {
		t.Fatalf("from=100 returned %+v, want the done event alone", events)
	}
}

// TestWatchEndsWhenTheRerunLogEndsShorter: a watcher read 10 events of a
// campaign's log before a restart, and the restarted server re-ran the
// campaign under a fresh log that finished after 5. The resumed watch
// returns done and delivers no event twice.
func TestWatchEndsWhenTheRerunLogEndsShorter(t *testing.T) {
	s := New(Options{Jobs: 2, Execute: fakeResult})
	defer s.Close()
	direct := httptest.NewServer(s.Handler())
	defer direct.Close()
	id := decodeStatus(t, postSpec(t, direct, specN(10, 2))).ID
	waitState(t, direct, id, api.StateDone) // queued, running, 2×cell, done

	// The first events connection stands in for the server before the
	// restart: ten events of a longer log, then the stream drops.
	var restarted atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/events") && restarted.CompareAndSwap(false, true) {
			enc := json.NewEncoder(w)
			for seq := 0; seq < 10; seq++ {
				_ = enc.Encode(api.Event{Seq: seq, Type: api.EventCell, Key: fmt.Sprintf("cell/%d", seq), Done: seq, Total: 12})
			}
			return
		}
		s.Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var seqs []int
	st, err := client.New(ts.URL, client.Options{}).Watch(ctx, id, func(ev api.Event) { seqs = append(seqs, ev.Seq) })
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	if st.State != api.StateDone {
		t.Errorf("watch returned %+v, want done", st)
	}
	if len(seqs) != 10 {
		t.Errorf("delivered seqs %v, want 0 to 9 once each", seqs)
	}
}
