package server

// Durability suite for the admission journal: replay/compaction unit
// tests, older journals' per-cell records dropped on open, no per-cell
// record written by a fleet campaign, and the headline restart property —
// a server killed mid-campaign re-admits the journaled campaign and
// serves bytes identical to an uninterrupted run, replaying finished
// cells from the checkpoint store instead of re-executing them.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
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

// journalSpec builds a minimal valid campaign spec whose cell keys embed
// name, so distinct specs get distinct content addresses.
func journalSpec(name string, cells int) *api.CampaignSpec {
	cfg := core.RunConfig{OS: ospersona.NT4, Workload: workload.Business, Duration: 150 * time.Millisecond}
	spec := &api.CampaignSpec{BaseSeed: 29}
	for i := 0; i < cells; i++ {
		spec.Cells = append(spec.Cells, api.CellSpec{
			Key:    fmt.Sprintf("nt4/business/%s/%d", name, i),
			Config: cfg,
		})
	}
	return spec
}

func openJournal(t *testing.T, path string) *Journal {
	t.Helper()
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("opening journal: %v", err)
	}
	return j
}

// TestJournalReplayAndCompaction: finished campaigns and per-cell merged
// records disappear across a reopen; live campaigns survive, and the
// reopened file holds exactly the live records.
func TestJournalReplayAndCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	specA, specB := journalSpec("a", 1), journalSpec("b", 1)
	idA, idB := api.CampaignID(specA), api.CampaignID(specB)

	j1 := openJournal(t, path)
	j1.Campaign(idA, specA)
	j1.Campaign(idB, specB)
	j1.Merged("fp1")
	j1.Merged("fp2")
	j1.Finished(idA, api.StateDone)
	j1.Finished(idB, api.StateRunning) // non-terminal: must not close B
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	j2 := openJournal(t, path)
	st := j2.State()
	if len(st.Campaigns) != 1 || st.Campaigns[0].ID != idB {
		t.Fatalf("live campaigns = %+v, want exactly %s", st.Campaigns, idB)
	}
	// Compaction rewrote the file to the live records only: one campaign.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(data), "\n"); lines != 1 {
		t.Fatalf("compacted journal has %d records, want 1:\n%s", lines, data)
	}

	// The compacted journal is still appendable: closing B empties it.
	j2.Finished(idB, api.StateCancelled)
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	j3 := openJournal(t, path)
	defer j3.Close()
	if st := j3.State(); len(st.Campaigns) != 0 {
		t.Fatalf("after closing all campaigns: %+v", st)
	}
}

// TestJournalToleratesTruncatedTail: a crash mid-append leaves a torn
// final record; replay keeps everything before it and the journal stays
// usable.
func TestJournalToleratesTruncatedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	spec := journalSpec("torn", 1)
	id := api.CampaignID(spec)

	j1 := openJournal(t, path)
	j1.Campaign(id, spec)
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"state","id":"` + id + `","state":"do`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	j2 := openJournal(t, path)
	st := j2.State()
	if len(st.Campaigns) != 1 || st.Campaigns[0].ID != id {
		t.Fatalf("campaigns after torn tail = %+v", st.Campaigns)
	}
	// Appends after recovery land cleanly.
	spec2 := journalSpec("after-tear", 1)
	j2.Campaign(api.CampaignID(spec2), spec2)
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	j3 := openJournal(t, path)
	defer j3.Close()
	if st := j3.State(); len(st.Campaigns) != 2 {
		t.Fatalf("campaigns after recovery append = %+v", st.Campaigns)
	}
}

// TestJournalNilReceiverIsSafe: the disabled journal (nil *Journal, as a
// cacheless server runs with) is a no-op on every method.
func TestJournalNilReceiverIsSafe(t *testing.T) {
	var j *Journal
	j.Campaign("id", journalSpec("nil", 1))
	j.Finished("id", api.StateDone)
	j.Merged("fp")
	j.Instrument(metrics.NewRegistry())
	if st := j.State(); len(st.Campaigns) != 0 {
		t.Fatalf("nil journal state = %+v", st)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestJournalDropsMergedRecordsOfOlderJournals: a journal written when the
// coordinator still journaled each merged cell opens cleanly — its
// "merged" lines between and after the campaign records are skipped, the
// live campaign is re-admitted and runs, and compaction leaves no merged
// line behind.
func TestJournalDropsMergedRecordsOfOlderJournals(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	finished, live := journalSpec("older-done", 1), journalSpec("older-live", 2)
	finishedID, liveID := api.CampaignID(finished), api.CampaignID(live)
	var old bytes.Buffer
	campaignLine := func(id string, spec *api.CampaignSpec) {
		line, err := json.Marshal(journalRecord{Op: journalOpCampaign, ID: id, Spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		old.Write(append(line, '\n'))
	}
	mergedLine := func(fp string) { fmt.Fprintf(&old, `{"op":"merged","fp":"%s"}`+"\n", fp) }
	campaignLine(finishedID, finished)
	mergedLine(strings.Repeat("ab", 32))
	mergedLine(strings.Repeat("cd", 32))
	campaignLine(liveID, live)
	fmt.Fprintf(&old, `{"op":"state","id":"%s","state":"done"}`+"\n", finishedID)
	mergedLine(strings.Repeat("ef", 32))
	if err := os.WriteFile(path, old.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	j := openJournal(t, path)
	defer j.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte(`"merged"`)) || strings.Count(string(data), "\n") != 1 {
		t.Fatalf("compacted journal is not the one live campaign record:\n%s", data)
	}

	reg := metrics.NewRegistry()
	srv := New(Options{Jobs: 1, Metrics: reg, Journal: j, Execute: resumeFakeResult})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if got := counter(reg, MetricResumed); got != 1 {
		t.Fatalf("%s = %d, want 1", MetricResumed, got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	status, err := client.New(ts.URL, client.Options{}).Watch(ctx, liveID, nil)
	if err != nil || status.State != api.StateDone {
		t.Fatalf("re-admitted campaign: %+v, %v", status, err)
	}
}

// TestJournalHoldsNoPerCellRecordsAfterFleetCampaign: a fleet campaign
// through a server with a store and a journal journals its admission and
// its end, and nothing per cell — the checkpoint store is the record that
// a cell finished.
func TestJournalHoldsNoPerCellRecordsAfterFleetCampaign(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "journal")
	st, err := store.Open(filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	j := openJournal(t, jpath)
	defer j.Close()
	reg := metrics.NewRegistry()
	srv := New(Options{Jobs: 4, Store: st, Metrics: reg, Journal: j,
		Fleet: &CoordinatorOptions{LeaseTTL: time.Minute, Poll: 5 * time.Millisecond}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	workerErr := make(chan error, 1)
	go func() {
		// The coordinator re-derives the fingerprint from the embedded
		// config, which the real simulator normalizes; so must the fake.
		exec := func(cfg core.RunConfig) *core.Result { return resumeFakeResult(cfg.Normalized()) }
		workerErr <- client.New(ts.URL, client.Options{}).RunWorker(ctx, client.WorkerOptions{Execute: exec})
	}()

	const cells = 8
	c := client.New(ts.URL, client.Options{})
	status, err := c.Watch(ctx, mustSubmit(t, ctx, c, journalSpec("fleet", cells)), nil)
	if err != nil || status.State != api.StateDone {
		t.Fatalf("fleet campaign: %+v, %v", status, err)
	}
	if got := counter(reg, MetricFleetCellsCompleted); got != cells {
		t.Fatalf("%s = %d, want %d", MetricFleetCellsCompleted, got, cells)
	}
	srv.Close() // drains the worker
	if err := <-workerErr; err != nil {
		t.Fatalf("worker: %v", err)
	}

	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	ops := map[string]int{}
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		var rec journalRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		ops[rec.Op]++
	}
	if len(ops) != 2 || ops[journalOpCampaign] != 1 || ops[journalOpState] != 1 {
		t.Fatalf("journal records by op = %v, want one campaign and one state line:\n%s", ops, data)
	}
}

// TestJournalKeepsCampaignReadmittedAfterCancel: a terminal record closes
// only the admissions before it, so a campaign that a DELETE cancelled and
// a resubmission admitted afresh is live after a crash, until a terminal
// record follows the new admission too.
func TestJournalKeepsCampaignReadmittedAfterCancel(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	spec := journalSpec("readmit", 1)
	id := api.CampaignID(spec)
	j1 := openJournal(t, path)
	j1.Campaign(id, spec)
	j1.Finished(id, api.StateCancelled)
	j1.Campaign(id, spec)
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	j2 := openJournal(t, path)
	if st := j2.State(); len(st.Campaigns) != 1 || st.Campaigns[0].ID != id {
		t.Fatalf("live campaigns after cancel and re-admission = %+v, want %s", st.Campaigns, id)
	}
	j2.Finished(id, api.StateDone)
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	j3 := openJournal(t, path)
	defer j3.Close()
	if st := j3.State(); len(st.Campaigns) != 0 {
		t.Fatalf("live campaigns after the re-admission finished = %+v, want none", st.Campaigns)
	}
}

// resumeFakeResult is the pure cell executor shared by the "crashed"
// server, the restarted server and the local reference run — identical
// configs produce identical results, so byte-identity is checkable.
func resumeFakeResult(cfg core.RunConfig) *core.Result {
	return &core.Result{Config: cfg, OSName: "resume-fake", Samples: cfg.Seed%100_000 + 1}
}

// localResumeBytes runs spec through the campaign runner with the same
// pure executor and returns the reference result stream.
func localResumeBytes(t *testing.T, spec *api.CampaignSpec) []byte {
	t.Helper()
	run := campaign.New(campaign.Options{BaseSeed: spec.Seed(), Jobs: 1,
		ExecuteCell: func(_ string, cfg core.RunConfig) (*core.Result, error) { return resumeFakeResult(cfg), nil }})
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

// TestServerResumesJournaledCampaign is the tentpole restart property: a
// server dies mid-campaign (simulated by abandoning it un-Closed, exactly
// what SIGKILL leaves behind), and its successor — same cache directory,
// same journal — re-admits the campaign on construction, replays the
// finished cell from the checkpoint store, executes the rest, and serves
// bytes identical to an uninterrupted local run.
func TestServerResumesJournaledCampaign(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "journal")
	spec := journalSpec("resume", 4)
	id := api.CampaignID(spec)
	want := localResumeBytes(t, spec)

	// First incarnation: cell 0 completes and checkpoints, cell 1 blocks
	// "forever" (until the crash), cells 2-3 never start (Jobs: 1).
	release := make(chan struct{})
	var calls atomic.Int32
	blockingExec := func(cfg core.RunConfig) *core.Result {
		if calls.Add(1) > 1 {
			<-release
		}
		return resumeFakeResult(cfg)
	}
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	j1 := openJournal(t, jpath)
	reg1 := metrics.NewRegistry()
	srv1 := New(Options{Jobs: 1, Store: st1, Metrics: reg1, Journal: j1, Execute: blockingExec})
	ts1 := httptest.NewServer(srv1.Handler())

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	c1 := client.New(ts1.URL, client.Options{})
	if _, err := c1.Submit(ctx, spec); err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitFor(t, "first cell done, second executing", func() bool {
		status, err := c1.Status(ctx, id)
		return err == nil && status.Done >= 1 && calls.Load() >= 2
	})

	// "Crash": the listener goes away and the server is abandoned with its
	// executor still wedged — never Closed, like a killed process. The
	// cleanup below unblocks it only after the successor has finished, and
	// its late journal appends land on the compacted-away old file inode.
	ts1.Close()
	t.Cleanup(func() {
		close(release)
		srv1.Close()
		j1.Close()
	})

	j2 := openJournal(t, jpath)
	defer j2.Close()
	if st := j2.State(); len(st.Campaigns) != 1 || st.Campaigns[0].ID != id {
		t.Fatalf("journal after crash = %+v, want live campaign %s", st.Campaigns, id)
	}
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg2 := metrics.NewRegistry()
	st2.Instrument(reg2)
	srv2 := New(Options{Jobs: 1, Store: st2, Metrics: reg2, Journal: j2, Execute: resumeFakeResult})
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	// No re-submission: the resumed job must already exist to watch.
	c2 := client.New(ts2.URL, client.Options{})
	status, err := c2.Watch(ctx, id, nil)
	if err != nil {
		t.Fatalf("watching resumed campaign: %v", err)
	}
	if status.State != api.StateDone {
		t.Fatalf("resumed campaign finished %s (%s), want done", status.State, status.Error)
	}
	got, err := c2.Result(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed result differs from uninterrupted local run (%d vs %d bytes)", len(got), len(want))
	}

	if got := counter(reg2, MetricResumed); got != 1 {
		t.Errorf("%s = %d, want 1", MetricResumed, got)
	}
	if got := counter(reg2, MetricSubmitted); got != 0 {
		t.Errorf("%s = %d, want 0 (resume is not a submission)", MetricSubmitted, got)
	}
	// Cell 0 replayed from its pre-crash checkpoint; cells 1-3 executed.
	if got := counter(reg2, campaign.MetricCheckpointHits); got != 1 {
		t.Errorf("%s = %d, want 1", campaign.MetricCheckpointHits, got)
	}
	if got := counter(reg2, MetricCellsExec); got != 3 {
		t.Errorf("%s = %d, want 3", MetricCellsExec, got)
	}
}

// TestServerDoesNotResumeFinishedCampaigns: terminal outcomes — done and
// user-cancelled — close their journal entries, so a restart re-admits
// nothing. Only a shutdown/crash leaves entries open.
func TestServerDoesNotResumeFinishedCampaigns(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "journal")
	doneSpec := journalSpec("done", 1)
	cancelSpec := journalSpec("cancel", 2)
	// Marker duration: only cancelSpec's cells block, so the done campaign
	// sails through while the cancel campaign wedges mid-flight.
	blockDur := 151 * time.Millisecond
	for i := range cancelSpec.Cells {
		cancelSpec.Cells[i].Config.Duration = blockDur
	}
	release := make(chan struct{})
	var blocked atomic.Int32
	exec := func(cfg core.RunConfig) *core.Result {
		if cfg.Duration == blockDur {
			blocked.Add(1)
			<-release
		}
		return resumeFakeResult(cfg)
	}

	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	j1 := openJournal(t, jpath)
	srv := New(Options{Jobs: 1, Store: st, Metrics: metrics.NewRegistry(), Journal: j1, Execute: exec})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	c := client.New(ts.URL, client.Options{})
	if status, err := c.Watch(ctx, mustSubmit(t, ctx, c, doneSpec), nil); err != nil || status.State != api.StateDone {
		t.Fatalf("done campaign: %+v, %v", status, err)
	}

	cancelID := mustSubmit(t, ctx, c, cancelSpec)
	waitFor(t, "cancel campaign wedged in its first cell", func() bool { return blocked.Load() >= 1 })
	if _, err := c.Cancel(ctx, cancelID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	close(release) // the running cell drains; the queued one resolves cancelled
	if status, err := c.Watch(ctx, cancelID, nil); err != nil || status.State != api.StateCancelled {
		t.Fatalf("cancelled campaign: %+v, %v", status, err)
	}

	srv.Close()
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}
	j2 := openJournal(t, jpath)
	defer j2.Close()
	if state := j2.State(); len(state.Campaigns) != 0 {
		t.Fatalf("journal still holds %+v after both campaigns ended", state.Campaigns)
	}
}

// TestServerDoesNotResumeCampaignsFinishedDuringShutdown: whether a
// campaign's journal entry closes depends on how the campaign ended, not
// on whether the server is shutting down by the time finishJob runs. Here
// Close's cancellation lands before three queued campaigns finish: the
// one that finished done and the one a DELETE cancelled are closed; the
// one only the shutdown cancelled stays open for the next incarnation.
func TestServerDoesNotResumeCampaignsFinishedDuringShutdown(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "journal")
	j1 := openJournal(t, jpath)
	plugged, release := make(chan struct{}), make(chan struct{})
	var plugOnce sync.Once
	exec := func(cfg core.RunConfig) *core.Result {
		plugOnce.Do(func() { close(plugged) })
		<-release
		return resumeFakeResult(cfg)
	}
	srv := New(Options{Jobs: 1, Concurrency: 1, Journal: j1, Execute: exec})
	serve := func(method, path string, body []byte, want int) {
		t.Helper()
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		if rec.Code != want {
			t.Fatalf("%s %s = %d (%s), want %d", method, path, rec.Code, rec.Body, want)
		}
	}
	submit := func(spec *api.CampaignSpec) {
		body, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		serve(http.MethodPost, "/v1/campaigns", body, http.StatusAccepted)
	}

	// The plug holds the only executor, so the next three stay queued and
	// the test finishes them itself, in a known order against Close.
	submit(journalSpec("plug", 1))
	<-plugged
	for _, name := range []string{"done", "deleted", "shutdown"} {
		submit(journalSpec(name, 1))
	}
	done, deleted, shutdown := <-srv.queue, <-srv.queue, <-srv.queue
	serve(http.MethodDelete, "/v1/campaigns/"+deleted.id, nil, http.StatusAccepted)
	srv.rootCancel()
	srv.finishJob(done, api.StateDone, nil, "")
	srv.finishJob(deleted, api.StateCancelled, nil, "cancelled")
	srv.finishJob(shutdown, api.StateCancelled, nil, "cancelled")
	close(release)
	srv.Close()
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	j2 := openJournal(t, jpath)
	defer j2.Close()
	open := map[string]bool{}
	for _, c := range j2.State().Campaigns {
		open[c.ID] = true
	}
	if open[done.id] || open[deleted.id] {
		t.Errorf("journal left open: done=%v deleted=%v, want both closed", open[done.id], open[deleted.id])
	}
	if !open[shutdown.id] {
		t.Error("campaign cancelled only by the shutdown was closed, want it left open to resume")
	}
}

func mustSubmit(t *testing.T, ctx context.Context, c *client.Client, spec *api.CampaignSpec) string {
	t.Helper()
	status, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	return status.ID
}
