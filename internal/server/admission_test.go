package server

// Campaigns answered at admission: a fixed-replica campaign whose every
// cell is in the checkpoint store is finished by the submit handler from
// the stored bytes. It takes no queue slot, executor, runner or journal
// record, and its event log and result are the ones the queued path
// produces for a campaign of checkpoint hits. A campaign with a missing or
// corrupt cell, and every adaptive campaign, still queues.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"wdmlat/internal/api"
	"wdmlat/internal/campaign"
	"wdmlat/internal/campaign/store"
	"wdmlat/internal/metrics"
	"wdmlat/internal/sim"
)

// seedStore checkpoints every cell of spec under its fingerprint, as the
// runner does after executing it with resumeFakeResult, so the reference
// stream is localResumeBytes(spec).
func seedStore(t *testing.T, st *store.Store, spec *api.CampaignSpec) {
	t.Helper()
	for _, c := range spec.Cells {
		cfg := c.Config
		cfg.Seed = sim.DeriveSeed(spec.Seed(), c.Key)
		if err := st.Save(api.CellFingerprint(spec.Seed(), c), resumeFakeResult(cfg)); err != nil {
			t.Fatal(err)
		}
	}
}

func openStore(t *testing.T, dir string, reg *metrics.Registry) *store.Store {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.Instrument(reg)
	return st
}

// getBody fetches path and returns its status code and body.
func getBody(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func TestStoredCampaignAnsweredAtAdmission(t *testing.T) {
	reg := metrics.NewRegistry()
	st := openStore(t, t.TempDir(), reg)
	spec := journalSpec("stored", 3)
	seedStore(t, st, spec)
	s := New(Options{Jobs: 1, Store: st, Metrics: reg, Execute: resumeFakeResult})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := postSpec(t, ts, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d, want 202", resp.StatusCode)
	}
	status := decodeStatus(t, resp)
	want := api.Status{ID: api.CampaignID(spec), State: api.StateDone, Done: 3, Total: 3, Cached: true}
	if status != want {
		t.Fatalf("submit status = %+v, want %+v", status, want)
	}

	// The queued path's log for a campaign of checkpoint hits: queued,
	// running, one cell event per cell in cell order, done; dense seqs.
	code, body := getBody(t, ts, "/v1/campaigns/"+status.ID+"/events")
	if code != http.StatusOK {
		t.Fatalf("events: %d", code)
	}
	wantEvents := []api.Event{
		{Seq: 0, Type: api.EventState, State: api.StateQueued, Done: 0, Total: 3},
		{Seq: 1, Type: api.EventState, State: api.StateRunning, Done: 0, Total: 3},
		{Seq: 2, Type: api.EventCell, Key: spec.Cells[0].Key, Done: 1, Total: 3},
		{Seq: 3, Type: api.EventCell, Key: spec.Cells[1].Key, Done: 2, Total: 3},
		{Seq: 4, Type: api.EventCell, Key: spec.Cells[2].Key, Done: 3, Total: 3},
		{Seq: 5, Type: api.EventState, State: api.StateDone, Done: 3, Total: 3},
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	for i := 0; dec.More(); i++ {
		var ev api.Event
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		if i >= len(wantEvents) || ev != wantEvents[i] {
			t.Fatalf("event %d = %+v, want the log %+v", i, ev, wantEvents)
		}
	}

	code, got := getBody(t, ts, "/v1/campaigns/"+status.ID+"/result")
	if code != http.StatusOK || !bytes.Equal(got, localResumeBytes(t, spec)) {
		t.Fatalf("result: %d, %d bytes differing from the local run", code, len(got))
	}
	for name, want := range map[string]uint64{
		MetricSubmitted:               1,
		MetricCompleted:               1,
		MetricCellsExec:               0,
		campaign.MetricCheckpointHits: 3,
		store.MetricReads:             3,
		store.MetricFingerprintMiss:   0,
	} {
		if got := counter(reg, name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if n := reg.Histogram(MetricCampaignWall).Count(); n != 1 {
		t.Errorf("%s holds %d observations, want 1", MetricCampaignWall, n)
	}
}

// TestConcurrentStoredSubmissionsAnswerOnce: identical submissions of a
// stored campaign race into admission; one answers it and the rest join
// that job, all done at submit and all served the same bytes.
func TestConcurrentStoredSubmissionsAnswerOnce(t *testing.T) {
	reg := metrics.NewRegistry()
	st := openStore(t, t.TempDir(), reg)
	spec := journalSpec("race", 4)
	seedStore(t, st, spec)
	s := New(Options{Store: st, Metrics: reg, Execute: resumeFakeResult})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	want := localResumeBytes(t, spec)

	const submitters = 8
	var wg sync.WaitGroup
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(spec)
			resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			var status api.Status
			err = json.NewDecoder(resp.Body).Decode(&status)
			resp.Body.Close()
			if err != nil || status.State != api.StateDone {
				t.Errorf("submit: %+v, %v; want done", status, err)
				return
			}
			resp, err = http.Get(ts.URL + "/v1/campaigns/" + status.ID + "/result")
			if err != nil {
				t.Error(err)
				return
			}
			got, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || !bytes.Equal(got, want) {
				t.Errorf("result: %d bytes (%v), want the local run's %d", len(got), err, len(want))
			}
		}()
	}
	wg.Wait()
	for name, want := range map[string]uint64{
		MetricSubmitted:               1,
		MetricDeduped:                 submitters - 1,
		campaign.MetricCheckpointHits: 4,
	} {
		if got := counter(reg, name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestStoredCampaignDoneWhileExecutorBusy is the head-of-line case: with
// the only executor held by a cold campaign and the queue full behind it,
// a campaign whose cells are all stored is done in its submit response.
func TestStoredCampaignDoneWhileExecutorBusy(t *testing.T) {
	reg := metrics.NewRegistry()
	st := openStore(t, t.TempDir(), reg)
	exec, release := blockingExec()
	s := New(Options{Jobs: 1, QueueLimit: 1, Concurrency: 1, Store: st, Metrics: reg, Execute: exec})
	defer func() { release(); s.Close() }()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cold := decodeStatus(t, postSpec(t, ts, specN(1, 1))).ID
	waitState(t, ts, cold, api.StateRunning)
	if queued := decodeStatus(t, postSpec(t, ts, specN(2, 1))); queued.State != api.StateQueued {
		t.Fatalf("second cold campaign = %+v, want queued", queued)
	}

	warm := journalSpec("busy", 2)
	seedStore(t, st, warm)
	resp := postSpec(t, ts, warm)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("stored campaign behind a busy executor and a full queue: %d, want 202", resp.StatusCode)
	}
	if status := decodeStatus(t, resp); status.State != api.StateDone || !status.Cached {
		t.Fatalf("stored campaign = %+v, want done and cached at submit", status)
	}
	if got := counter(reg, MetricRejected); got != 0 {
		t.Errorf("%s = %d, want 0", MetricRejected, got)
	}
	release()
	waitState(t, ts, cold, api.StateDone)
}

// TestStoredCampaignIsNotJournaled: a campaign done at admission writes no
// journal line, so the journal stays empty and a restart resumes nothing.
func TestStoredCampaignIsNotJournaled(t *testing.T) {
	st := openStore(t, t.TempDir(), nil)
	spec := journalSpec("unjournaled", 2)
	seedStore(t, st, spec)
	jpath := filepath.Join(t.TempDir(), "journal")
	j1 := openJournal(t, jpath)
	srv := New(Options{Store: st, Journal: j1, Execute: resumeFakeResult})
	ts := httptest.NewServer(srv.Handler())
	if status := decodeStatus(t, postSpec(t, ts, spec)); status.State != api.StateDone {
		t.Fatalf("stored campaign = %+v, want done at submit", status)
	}
	ts.Close()
	srv.Close()
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	if data, err := os.ReadFile(jpath); err != nil || len(data) != 0 {
		t.Fatalf("journal = %q (%v), want empty", data, err)
	}
	j2 := openJournal(t, jpath)
	defer j2.Close()
	reg := metrics.NewRegistry()
	srv2 := New(Options{Store: st, Journal: j2, Metrics: reg, Execute: resumeFakeResult})
	defer srv2.Close()
	if got := counter(reg, MetricResumed); got != 0 {
		t.Errorf("%s = %d, want 0", MetricResumed, got)
	}
}

// TestCorruptStoredCellFallsThrough: a stored cell that does not decode
// sends the campaign down the queued path unchanged. There the runner
// counts the corrupt checkpoint once, re-executes that cell alone and
// stores it again, and the campaign ends done with the local run's bytes:
// the healed checkpoint is not a failure. The re-stored cell is the local
// run's document: the same cells in another order are then answered at
// admission with the local run's bytes.
func TestCorruptStoredCellFallsThrough(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	st := openStore(t, dir, reg)
	spec := journalSpec("corrupt", 3)
	seedStore(t, st, spec)
	bad := api.CellFingerprint(spec.Seed(), spec.Cells[1])
	if err := os.WriteFile(filepath.Join(dir, bad+".json"), []byte(`{"Version":2,"Conf`), 0o644); err != nil {
		t.Fatal(err)
	}
	s := New(Options{Jobs: 1, Store: st, Metrics: reg, Execute: resumeFakeResult})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status := decodeStatus(t, postSpec(t, ts, spec))
	if status.State == api.StateDone {
		t.Fatal("campaign with a corrupt stored cell was answered at admission")
	}
	waitState(t, ts, status.ID, api.StateDone)
	code, got := getBody(t, ts, "/v1/campaigns/"+status.ID+"/result")
	if code != http.StatusOK || !bytes.Equal(got, localResumeBytes(t, spec)) {
		t.Fatalf("result over a corrupt stored cell: %d, %d bytes differing from the local run", code, len(got))
	}
	for name, want := range map[string]uint64{
		campaign.MetricCheckpointCorrupt: 1,
		campaign.MetricCheckpointHits:    2,
		MetricCellsExec:                  1,
	} {
		if got := counter(reg, name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}

	reordered := &api.CampaignSpec{BaseSeed: spec.BaseSeed, Cells: []api.CellSpec{spec.Cells[2], spec.Cells[1], spec.Cells[0]}}
	if status := decodeStatus(t, postSpec(t, ts, reordered)); status.State != api.StateDone {
		t.Fatalf("campaign over the healed store = %+v, want done at submit", status)
	}
	code, got = getBody(t, ts, "/v1/campaigns/"+api.CampaignID(reordered)+"/result")
	if code != http.StatusOK || !bytes.Equal(got, localResumeBytes(t, reordered)) {
		t.Fatalf("result: %d, %d bytes differing from the local run", code, len(got))
	}
	if got := counter(reg, MetricCellsExec); got != 1 {
		t.Errorf("%s = %d after the healed campaign, want 1", MetricCellsExec, got)
	}
}

// TestStoredAdaptiveCampaignStillQueues: an adaptive campaign pools a
// varying number of replicas per cell, so it queues even when every
// replica and a document under each logical cell's own fingerprint are
// stored.
func TestStoredAdaptiveCampaignStillQueues(t *testing.T) {
	st := openStore(t, t.TempDir(), nil)
	spec := adaptiveSpec()
	want, _ := localAdaptiveBytes(t, spec, 1)
	warm := New(Options{Jobs: 4, Store: st, Execute: adaptiveExec})
	warmTS := httptest.NewServer(warm.Handler())
	fetchViaClient(t, warmTS, spec)
	warmTS.Close()
	warm.Close()
	seedStore(t, st, spec)

	reg := metrics.NewRegistry()
	s := New(Options{Jobs: 4, Store: st, Metrics: reg, Execute: adaptiveExec})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	status := decodeStatus(t, postSpec(t, ts, spec))
	if status.State == api.StateDone {
		t.Fatal("adaptive campaign was answered at admission")
	}
	if status = waitState(t, ts, status.ID, api.StateDone); !status.Cached {
		t.Error("adaptive campaign replayed from the store is not marked cached")
	}
	code, got := getBody(t, ts, "/v1/campaigns/"+status.ID+"/result")
	if code != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("result: %d, %d bytes differing from the local adaptive run", code, len(got))
	}
	if got := counter(reg, MetricCellsExec); got != 0 {
		t.Errorf("%s = %d, want 0", MetricCellsExec, got)
	}
}
