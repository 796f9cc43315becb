package server

// Fault-injection suite for the fleet coordinator, run under -race in CI.
// Every test drives the Coordinator directly — registration, leases,
// completions and the reclaim clock are all under test control — and
// checks the two properties the fleet design hangs on: a cell's bytes
// reach a campaign exactly once no matter how workers misbehave, and
// every failure mode (silence, corruption, duplication, shutdown) resolves
// without stalling a waiter forever — while the coordinator remembers
// only the cells still pending or leased.
//
// Results here are fabricated, not simulated: coordinator validation only
// inspects the payload's encoding and embedded config, so a pure function
// of the lease stands in for core.Run and keeps the suite instant. The
// real simulator flows through the HTTP-level tests in shard_test.go.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"wdmlat/internal/api"
	"wdmlat/internal/core"
	"wdmlat/internal/metrics"
	"wdmlat/internal/ospersona"
	"wdmlat/internal/workload"
)

// fakeClock is an injectable coordinator clock; Advance moves lease-expiry
// time without waiting on the wall clock.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// fakeCellResult fabricates the result a perfectly deterministic worker
// would deliver for a lease: a pure function of the cell identity, with
// the lease's normalized config embedded — exactly as core.Run embeds the
// defaults-filled config it executed — so fingerprint re-derivation passes.
func fakeCellResult(l api.Lease) *core.Result {
	return &core.Result{
		Config:  l.Config.Normalized(),
		OSName:  "fleetfake",
		Samples: uint64(len(l.Key))*1000 + uint64(l.Config.Seed%997),
	}
}

// fakePayload is the canonical completion body for a lease.
func fakePayload(t *testing.T, l api.Lease) json.RawMessage {
	t.Helper()
	payload, err := api.EncodeCellResult(fakeCellResult(l))
	if err != nil {
		t.Fatalf("encoding fake result: %v", err)
	}
	return payload
}

type cellOutcome struct {
	res *core.Result
	err error
}

// startCell launches ExecuteRemote in the background and returns the
// channel its outcome lands on.
func startCell(ctx context.Context, co *Coordinator, baseSeed uint64, key string, cfg core.RunConfig) <-chan cellOutcome {
	ch := make(chan cellOutcome, 1)
	go func() {
		res, err := co.ExecuteRemote(ctx, baseSeed, key, cfg)
		ch <- cellOutcome{res, err}
	}()
	return ch
}

// waitFor polls cond until it holds or the test deadline budget runs out.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func cellConfig(d time.Duration) core.RunConfig {
	return core.RunConfig{OS: ospersona.NT4, Workload: workload.Business, Duration: d, Seed: 41}
}

func counter(reg *metrics.Registry, name string) uint64 {
	return reg.Counter(name).Value()
}

// TestCoordinatorReclaimsSilentWorker is the headline fault: a worker
// registers, leases a cell, and never heartbeats again. The reclaim pass
// must expire it, re-dispatch the cell, and let a healthy worker finish it
// — with the loss visible in the fleet counters.
func TestCoordinatorReclaimsSilentWorker(t *testing.T) {
	clock := newFakeClock()
	reg := metrics.NewRegistry()
	co := NewCoordinator(CoordinatorOptions{LeaseTTL: 10 * time.Second, Metrics: reg, Now: clock.Now})
	defer co.Close()

	out := startCell(context.Background(), co, 7, "nt4/business/silent/0", cellConfig(time.Millisecond))
	waitFor(t, "cell enqueued", func() bool { return co.Status().Pending == 1 })

	// The doomed worker takes the lease and goes dark.
	dead, _ := co.Register("dead")
	resp, ok := co.Lease(dead.WorkerID, 4)
	if !ok || len(resp.Leases) != 1 {
		t.Fatalf("lease to dead worker: ok=%v leases=%d", ok, len(resp.Leases))
	}

	// A healthy worker keeps beating across the silence window.
	live, _ := co.Register("live")
	for i := 0; i < 3; i++ {
		clock.Advance(4 * time.Second)
		if !co.Heartbeat(live.WorkerID) {
			t.Fatalf("live worker lost registration at step %d", i)
		}
		co.Reclaim()
	}

	if co.Heartbeat(dead.WorkerID) {
		t.Fatal("silent worker still registered after TTL elapsed")
	}
	if got := co.Status(); got.Pending != 1 || got.Leased != 0 {
		t.Fatalf("after reclaim: pending=%d leased=%d, want 1/0", got.Pending, got.Leased)
	}
	for name, want := range map[string]uint64{
		MetricFleetWorkersExpired:    1,
		MetricFleetLeasesReclaimed:   1,
		MetricFleetCellsRedispatched: 1,
	} {
		if got := counter(reg, name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}

	// The re-dispatched lease must be the same cell, and its completion
	// must release the original waiter.
	resp, ok = co.Lease(live.WorkerID, 1)
	if !ok || len(resp.Leases) != 1 {
		t.Fatalf("re-dispatch lease: ok=%v leases=%d", ok, len(resp.Leases))
	}
	l := resp.Leases[0]
	if l.Key != "nt4/business/silent/0" {
		t.Fatalf("re-dispatched lease is %q", l.Key)
	}
	disp, err := co.Complete(live.WorkerID, api.CompleteRequest{Fingerprint: l.Fingerprint, Result: fakePayload(t, l)})
	if err != nil || disp != CompleteMerged {
		t.Fatalf("complete after re-dispatch: %v (disposition %d)", err, disp)
	}
	res := <-out
	if res.err != nil {
		t.Fatalf("ExecuteRemote: %v", res.err)
	}
	want := fakeCellResult(l)
	if res.res.Samples != want.Samples {
		t.Fatalf("merged samples %d, want %d", res.res.Samples, want.Samples)
	}
}

// TestCoordinatorRejectsCorruptPayloads feeds the completion path every
// corruption the protocol can express: undecodable bytes, a non-canonical
// encoding of a correct result, and a canonical result for the wrong cell
// (fingerprint mismatch). Each must be rejected and re-dispatched — none
// may ever reach the waiting campaign.
func TestCoordinatorRejectsCorruptPayloads(t *testing.T) {
	reg := metrics.NewRegistry()
	co := NewCoordinator(CoordinatorOptions{LeaseTTL: time.Minute, Metrics: reg})
	defer co.Close()

	out := startCell(context.Background(), co, 9, "nt4/business/corrupt/0", cellConfig(2*time.Millisecond))
	waitFor(t, "cell enqueued", func() bool { return co.Status().Pending == 1 })
	w, _ := co.Register("saboteur")

	takeLease := func() api.Lease {
		t.Helper()
		resp, ok := co.Lease(w.WorkerID, 1)
		if !ok || len(resp.Leases) != 1 {
			t.Fatalf("lease: ok=%v leases=%d", ok, len(resp.Leases))
		}
		return resp.Leases[0]
	}

	l := takeLease()
	good := fakePayload(t, l)

	// Non-canonical: decodes to the right result, but the bytes are not
	// the codec's own encoding (indentation added).
	var indented bytes.Buffer
	if err := json.Indent(&indented, good, "", "  "); err != nil {
		t.Fatal(err)
	}
	// Wrong cell: a perfectly canonical result whose embedded config
	// re-derives a different fingerprint.
	wrong := l
	wrong.Config.Duration += time.Millisecond
	wrongPayload := fakePayload(t, wrong)

	corruptions := []struct {
		name    string
		payload json.RawMessage
	}{
		{"undecodable", json.RawMessage(`{"Version":`)},
		{"non-canonical", indented.Bytes()},
		{"wrong-cell", wrongPayload},
	}
	for i, c := range corruptions {
		disp, err := co.Complete(w.WorkerID, api.CompleteRequest{Fingerprint: l.Fingerprint, Result: c.payload})
		if disp != CompleteRejected || err == nil {
			t.Fatalf("%s: disposition %d err %v, want rejected", c.name, disp, err)
		}
		select {
		case res := <-out:
			t.Fatalf("%s: corrupt payload reached the campaign: %+v", c.name, res)
		default:
		}
		if got := co.Status(); got.Pending != 1 || got.Leased != 0 {
			t.Fatalf("%s: pending=%d leased=%d, want re-dispatched 1/0", c.name, got.Pending, got.Leased)
		}
		if got := counter(reg, MetricFleetCellsRejected); got != uint64(i+1) {
			t.Fatalf("%s: rejected counter %d, want %d", c.name, got, i+1)
		}
		l = takeLease() // the re-dispatched copy, for the next corruption (or the clean finish)
	}

	disp, err := co.Complete(w.WorkerID, api.CompleteRequest{Fingerprint: l.Fingerprint, Result: fakePayload(t, l)})
	if err != nil || disp != CompleteMerged {
		t.Fatalf("clean completion after corruption: %v (disposition %d)", err, disp)
	}
	res := <-out
	if res.err != nil {
		t.Fatalf("ExecuteRemote: %v", res.err)
	}
	if got := counter(reg, MetricFleetCellsCompleted); got != 1 {
		t.Errorf("completed counter %d, want exactly 1 merge", got)
	}
	if got := counter(reg, MetricFleetCellsRedispatched); got != 3 {
		t.Errorf("redispatched counter %d, want 3", got)
	}
}

// TestCoordinatorDuplicateCompletionIsNoOp re-delivers an already-merged
// cell — the retry/straggler race — and checks it does not double-merge:
// the cell left the task table when it merged, so each re-delivery is
// CompleteUnknown (410, which the worker drops) and counted stale.
func TestCoordinatorDuplicateCompletionIsNoOp(t *testing.T) {
	reg := metrics.NewRegistry()
	co := NewCoordinator(CoordinatorOptions{LeaseTTL: time.Minute, Metrics: reg})
	defer co.Close()

	out := startCell(context.Background(), co, 3, "nt4/business/dup/0", cellConfig(time.Millisecond))
	waitFor(t, "cell enqueued", func() bool { return co.Status().Pending == 1 })
	w, _ := co.Register("")
	resp, _ := co.Lease(w.WorkerID, 1)
	l := resp.Leases[0]
	payload := fakePayload(t, l)

	if disp, err := co.Complete(w.WorkerID, api.CompleteRequest{Fingerprint: l.Fingerprint, Result: payload}); err != nil || disp != CompleteMerged {
		t.Fatalf("first completion: %v (disposition %d)", err, disp)
	}
	if res := <-out; res.err != nil {
		t.Fatalf("ExecuteRemote: %v", res.err)
	}
	for i := 0; i < 2; i++ {
		if disp, _ := co.Complete(w.WorkerID, api.CompleteRequest{Fingerprint: l.Fingerprint, Result: payload}); disp != CompleteUnknown {
			t.Fatalf("duplicate %d: disposition %d, want unknown", i, disp)
		}
	}
	if got := counter(reg, MetricFleetStaleDone); got != 2 {
		t.Errorf("%s = %d, want 2", MetricFleetStaleDone, got)
	}
	if got := counter(reg, MetricFleetCellsCompleted); got != 1 {
		t.Errorf("%s = %d, want 1", MetricFleetCellsCompleted, got)
	}
}

// TestCoordinatorStragglerFromExpiredWorkerMerges covers work
// conservation: a worker declared dead finishes its cell anyway. The
// straggler's (valid) result merges, and the re-dispatched copy finds no
// live task: CompleteUnknown, dropped by its worker.
func TestCoordinatorStragglerFromExpiredWorkerMerges(t *testing.T) {
	clock := newFakeClock()
	reg := metrics.NewRegistry()
	co := NewCoordinator(CoordinatorOptions{LeaseTTL: 5 * time.Second, Metrics: reg, Now: clock.Now})
	defer co.Close()

	out := startCell(context.Background(), co, 13, "nt4/business/straggler/0", cellConfig(time.Millisecond))
	waitFor(t, "cell enqueued", func() bool { return co.Status().Pending == 1 })

	slow, _ := co.Register("slow")
	resp, _ := co.Lease(slow.WorkerID, 1)
	l := resp.Leases[0]

	clock.Advance(6 * time.Second)
	co.Reclaim()
	second, _ := co.Register("second")
	resp2, _ := co.Lease(second.WorkerID, 1)
	if len(resp2.Leases) != 1 || resp2.Leases[0].Fingerprint != l.Fingerprint {
		t.Fatalf("re-dispatch after expiry: %+v", resp2)
	}

	// The expired worker lands its result first.
	disp, err := co.Complete(slow.WorkerID, api.CompleteRequest{Fingerprint: l.Fingerprint, Result: fakePayload(t, l)})
	if err != nil || disp != CompleteMerged {
		t.Fatalf("straggler completion: %v (disposition %d)", err, disp)
	}
	if res := <-out; res.err != nil {
		t.Fatalf("ExecuteRemote: %v", res.err)
	}
	// The re-dispatched copy arrives later and merges nothing.
	if disp, _ = co.Complete(second.WorkerID, api.CompleteRequest{Fingerprint: l.Fingerprint, Result: fakePayload(t, l)}); disp != CompleteUnknown {
		t.Fatalf("re-dispatched copy: disposition %d, want unknown", disp)
	}
	if got := counter(reg, MetricFleetCellsCompleted); got != 1 {
		t.Errorf("%s = %d, want 1", MetricFleetCellsCompleted, got)
	}
}

// TestCoordinatorStragglerCompletesBeforeRedispatch covers the narrower
// straggler race: the declared-dead worker delivers its completion while
// the reclaimed cell is still *queued*, before anyone re-leases it. The
// finished cell must leave the queue — a later Lease granting a done cell
// would clobber the published outcome and leak the leased-cells gauge —
// and both the valid-result and deterministic-error deliveries take the
// same finish path.
func TestCoordinatorStragglerCompletesBeforeRedispatch(t *testing.T) {
	deliveries := []struct {
		name string
		req  func(t *testing.T, l api.Lease) api.CompleteRequest
	}{
		{"result", func(t *testing.T, l api.Lease) api.CompleteRequest {
			return api.CompleteRequest{Fingerprint: l.Fingerprint, Result: fakePayload(t, l)}
		}},
		{"error", func(t *testing.T, l api.Lease) api.CompleteRequest {
			return api.CompleteRequest{Fingerprint: l.Fingerprint, Error: "panic: boom"}
		}},
	}
	for _, d := range deliveries {
		t.Run(d.name, func(t *testing.T) {
			clock := newFakeClock()
			reg := metrics.NewRegistry()
			co := NewCoordinator(CoordinatorOptions{LeaseTTL: 5 * time.Second, Metrics: reg, Now: clock.Now})
			defer co.Close()

			out := startCell(context.Background(), co, 17, "nt4/business/early-straggler/0", cellConfig(time.Millisecond))
			waitFor(t, "cell enqueued", func() bool { return co.Status().Pending == 1 })
			slow, _ := co.Register("slow")
			resp, _ := co.Lease(slow.WorkerID, 1)
			l := resp.Leases[0]

			clock.Advance(6 * time.Second)
			co.Reclaim() // cell back in the queue, pending

			disp, err := co.Complete(slow.WorkerID, d.req(t, l))
			if err != nil || disp != CompleteMerged {
				t.Fatalf("straggler completion: %v (disposition %d)", err, disp)
			}
			res := <-out
			if d.name == "result" && res.err != nil {
				t.Fatalf("ExecuteRemote: %v", res.err)
			}
			if d.name == "error" && (res.err == nil || !strings.Contains(res.err.Error(), "panic: boom")) {
				t.Fatalf("ExecuteRemote error = %v, want the worker's failure", res.err)
			}
			if got := co.Status(); got.Pending != 0 || got.Leased != 0 {
				t.Fatalf("after merge: pending=%d leased=%d, want 0/0", got.Pending, got.Leased)
			}

			// No ghost grant: a fresh worker asking for work gets nothing,
			// and the queue/lease gauges are back to zero.
			late, _ := co.Register("late")
			if resp, ok := co.Lease(late.WorkerID, 4); !ok || len(resp.Leases) != 0 {
				t.Fatalf("lease after merged straggler: ok=%v grants=%d, want empty", ok, len(resp.Leases))
			}
			if got := reg.Gauge(MetricFleetQueueDepth).Value(); got != 0 {
				t.Errorf("%s = %d, want 0", MetricFleetQueueDepth, got)
			}
			if got := reg.Gauge(MetricFleetCellsLeased).Value(); got != 0 {
				t.Errorf("%s = %d, want 0", MetricFleetCellsLeased, got)
			}
		})
	}
}

// TestCoordinatorCorruptStragglerDoesNotDoubleQueue: a declared-dead
// worker delivers a *corrupt* payload for a cell Reclaim already requeued.
// The rejection must not append the cell a second time — a double-queued
// cell would be leased to two workers at once and drift the gauges.
func TestCoordinatorCorruptStragglerDoesNotDoubleQueue(t *testing.T) {
	clock := newFakeClock()
	reg := metrics.NewRegistry()
	co := NewCoordinator(CoordinatorOptions{LeaseTTL: 5 * time.Second, Metrics: reg, Now: clock.Now})
	defer co.Close()

	out := startCell(context.Background(), co, 19, "nt4/business/corrupt-straggler/0", cellConfig(time.Millisecond))
	waitFor(t, "cell enqueued", func() bool { return co.Status().Pending == 1 })
	slow, _ := co.Register("slow")
	resp, _ := co.Lease(slow.WorkerID, 1)
	l := resp.Leases[0]

	clock.Advance(6 * time.Second)
	co.Reclaim() // cell back in the queue, pending

	disp, err := co.Complete(slow.WorkerID, api.CompleteRequest{Fingerprint: l.Fingerprint, Result: json.RawMessage(`{"Version":`)})
	if disp != CompleteRejected || err == nil {
		t.Fatalf("corrupt straggler: disposition %d err %v, want rejected", disp, err)
	}
	if got := co.Status(); got.Pending != 1 {
		t.Fatalf("pending=%d after rejected straggler, want exactly 1 queued copy", got.Pending)
	}
	if got := reg.Gauge(MetricFleetQueueDepth).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", MetricFleetQueueDepth, got)
	}

	// Exactly one copy of the cell is grantable.
	first, _ := co.Register("first")
	grant, _ := co.Lease(first.WorkerID, 4)
	if len(grant.Leases) != 1 {
		t.Fatalf("re-dispatch grant: %d leases, want 1", len(grant.Leases))
	}
	second, _ := co.Register("second")
	if resp, _ := co.Lease(second.WorkerID, 4); len(resp.Leases) != 0 {
		t.Fatalf("cell leased twice: second worker got %d leases", len(resp.Leases))
	}

	disp, err = co.Complete(first.WorkerID, api.CompleteRequest{Fingerprint: l.Fingerprint, Result: fakePayload(t, grant.Leases[0])})
	if err != nil || disp != CompleteMerged {
		t.Fatalf("clean completion: %v (disposition %d)", err, disp)
	}
	if res := <-out; res.err != nil {
		t.Fatalf("ExecuteRemote: %v", res.err)
	}
	if got := counter(reg, MetricFleetCellsCompleted); got != 1 {
		t.Errorf("completed counter %d, want exactly 1 merge", got)
	}
}

// TestCoordinatorWorkerErrorFailsCellDeterministically: a worker-reported
// execution error fails the cell for its waiters instead of re-dispatching
// — results are pure functions of the lease, so a retry would fail the
// same way on every worker.
func TestCoordinatorWorkerErrorFailsCellDeterministically(t *testing.T) {
	reg := metrics.NewRegistry()
	co := NewCoordinator(CoordinatorOptions{LeaseTTL: time.Minute, Metrics: reg})
	defer co.Close()

	out := startCell(context.Background(), co, 5, "nt4/business/panic/0", cellConfig(time.Millisecond))
	waitFor(t, "cell enqueued", func() bool { return co.Status().Pending == 1 })
	w, _ := co.Register("")
	resp, _ := co.Lease(w.WorkerID, 1)
	l := resp.Leases[0]

	disp, err := co.Complete(w.WorkerID, api.CompleteRequest{Fingerprint: l.Fingerprint, Error: "panic: boom"})
	if err != nil || disp != CompleteMerged {
		t.Fatalf("error completion: %v (disposition %d)", err, disp)
	}
	res := <-out
	if res.err == nil || !strings.Contains(res.err.Error(), "panic: boom") {
		t.Fatalf("ExecuteRemote error = %v, want the worker's failure", res.err)
	}
	if got := co.Status(); got.Pending != 0 || got.Leased != 0 {
		t.Fatalf("failed cell was re-dispatched: pending=%d leased=%d", got.Pending, got.Leased)
	}
	if got := counter(reg, MetricFleetCellsFailed); got != 1 {
		t.Errorf("%s = %d, want 1", MetricFleetCellsFailed, got)
	}
	if got := counter(reg, MetricFleetCellsRedispatched); got != 0 {
		t.Errorf("%s = %d, want 0", MetricFleetCellsRedispatched, got)
	}
}

// TestCoordinatorDrainWithLeasesOutstanding shuts the coordinator down
// while one cell is leased out and another is still queued. Every waiter
// must fail promptly with ErrDraining, workers must be told to exit, and
// post-drain traffic must resolve (not hang, not merge).
func TestCoordinatorDrainWithLeasesOutstanding(t *testing.T) {
	co := NewCoordinator(CoordinatorOptions{LeaseTTL: time.Minute})

	leased := startCell(context.Background(), co, 21, "nt4/business/drain/0", cellConfig(time.Millisecond))
	queued := startCell(context.Background(), co, 21, "nt4/business/drain/1", cellConfig(2*time.Millisecond))
	waitFor(t, "cells enqueued", func() bool { return co.Status().Pending == 2 })
	w, _ := co.Register("holder")
	resp, _ := co.Lease(w.WorkerID, 1)
	if len(resp.Leases) != 1 {
		t.Fatalf("lease grant: %d", len(resp.Leases))
	}
	l := resp.Leases[0]

	co.Close()

	for name, ch := range map[string]<-chan cellOutcome{"leased": leased, "queued": queued} {
		select {
		case res := <-ch:
			if !errors.Is(res.err, ErrDraining) {
				t.Fatalf("%s cell: err = %v, want ErrDraining", name, res.err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s cell: waiter still blocked after Close", name)
		}
	}
	if resp, ok := co.Lease(w.WorkerID, 1); !ok || !resp.Draining || len(resp.Leases) != 0 {
		t.Fatalf("post-drain lease: ok=%v %+v, want empty draining grant", ok, resp)
	}
	if disp, _ := co.Complete(w.WorkerID, api.CompleteRequest{Fingerprint: l.Fingerprint, Result: fakePayload(t, l)}); disp != CompleteUnknown {
		t.Fatalf("post-drain completion disposition %d, want unknown", disp)
	}
	if _, err := co.ExecuteRemote(context.Background(), 21, "nt4/business/drain/2", cellConfig(time.Millisecond)); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain ExecuteRemote err = %v, want ErrDraining", err)
	}
	co.Close() // idempotent
}

// TestCoordinatorCancelledWaiterRetractsCell: when the last campaign
// waiting on a cell gives up, the cell leaves the queue (pending) or is
// orphaned (leased) instead of running for nobody.
func TestCoordinatorCancelledWaiterRetractsCell(t *testing.T) {
	co := NewCoordinator(CoordinatorOptions{LeaseTTL: time.Minute})
	defer co.Close()

	ctx, cancel := context.WithCancel(context.Background())
	out := startCell(ctx, co, 31, "nt4/business/retract/0", cellConfig(time.Millisecond))
	waitFor(t, "cell enqueued", func() bool { return co.Status().Pending == 1 })
	cancel()
	res := <-out
	if !errors.Is(res.err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", res.err)
	}
	if got := co.Status(); got.Pending != 0 {
		t.Fatalf("retracted cell still queued: pending=%d", got.Pending)
	}

	// Leased variant: the orphaned completion resolves as unknown.
	ctx2, cancel2 := context.WithCancel(context.Background())
	out2 := startCell(ctx2, co, 31, "nt4/business/retract/1", cellConfig(time.Millisecond))
	waitFor(t, "cell enqueued", func() bool { return co.Status().Pending == 1 })
	w, _ := co.Register("")
	resp, _ := co.Lease(w.WorkerID, 1)
	l := resp.Leases[0]
	cancel2()
	if res := <-out2; !errors.Is(res.err, context.Canceled) {
		t.Fatalf("leased retract err = %v", res.err)
	}
	if disp, _ := co.Complete(w.WorkerID, api.CompleteRequest{Fingerprint: l.Fingerprint, Result: fakePayload(t, l)}); disp != CompleteUnknown {
		t.Fatalf("orphaned completion disposition %d, want unknown", disp)
	}
}

// TestCoordinatorDeduplicatesIdenticalCells: two campaigns wanting the
// same fingerprint share one lease, and a single completion releases both
// waiters with the same result.
func TestCoordinatorDeduplicatesIdenticalCells(t *testing.T) {
	reg := metrics.NewRegistry()
	co := NewCoordinator(CoordinatorOptions{LeaseTTL: time.Minute, Metrics: reg})
	defer co.Close()

	cfg := cellConfig(3 * time.Millisecond)
	a := startCell(context.Background(), co, 55, "nt4/business/shared/0", cfg)
	b := startCell(context.Background(), co, 55, "nt4/business/shared/0", cfg)
	waitFor(t, "deduped enqueue", func() bool { return co.Status().Pending == 1 })

	w, _ := co.Register("")
	resp, _ := co.Lease(w.WorkerID, 8)
	if len(resp.Leases) != 1 {
		t.Fatalf("identical cells produced %d leases, want 1", len(resp.Leases))
	}
	l := resp.Leases[0]
	if _, err := co.Complete(w.WorkerID, api.CompleteRequest{Fingerprint: l.Fingerprint, Result: fakePayload(t, l)}); err != nil {
		t.Fatal(err)
	}
	ra, rb := <-a, <-b
	if ra.err != nil || rb.err != nil {
		t.Fatalf("waiters: %v / %v", ra.err, rb.err)
	}
	if ra.res.Samples != rb.res.Samples {
		t.Fatalf("waiters saw different results: %d vs %d", ra.res.Samples, rb.res.Samples)
	}
	if got := counter(reg, MetricFleetLeasesGranted); got != 1 {
		t.Errorf("%s = %d, want 1", MetricFleetLeasesGranted, got)
	}
}

// TestCoordinatorRefusesRegistrationWhileDraining: after Close the
// janitor is gone, so an admitted worker could never be expired — a
// late registration must be turned away (the server answers it 503),
// not silently leaked into the worker table.
func TestCoordinatorRefusesRegistrationWhileDraining(t *testing.T) {
	reg := metrics.NewRegistry()
	co := NewCoordinator(CoordinatorOptions{LeaseTTL: time.Second, Metrics: reg})
	co.Close()

	if resp, ok := co.Register("latecomer"); ok {
		t.Fatalf("drained coordinator admitted worker %q", resp.WorkerID)
	}
	if got := reg.Gauge(MetricFleetWorkersActive).Value(); got != 0 {
		t.Fatalf("%s = %d after refused registration, want 0", MetricFleetWorkersActive, got)
	}
	if workers := co.Status().Workers; len(workers) != 0 {
		t.Fatalf("drained coordinator lists workers: %+v", workers)
	}
}

// TestCoordinatorRejectsPaddedPayload: canonical-form validation is exact.
// A payload that differs from the canonical encoding only by surrounding
// whitespace would decode to the same result, but merging it would break
// byte-identity of the campaign stream — it must be rejected, and the
// untouched canonical payload must still merge afterwards.
func TestCoordinatorRejectsPaddedPayload(t *testing.T) {
	reg := metrics.NewRegistry()
	co := NewCoordinator(CoordinatorOptions{LeaseTTL: time.Minute, Metrics: reg})
	defer co.Close()

	out := startCell(context.Background(), co, 7, "nt4/business/padded/0", cellConfig(time.Millisecond))
	waitFor(t, "cell enqueued", func() bool { return co.Status().Pending == 1 })
	w, _ := co.Register("strict")
	resp, _ := co.Lease(w.WorkerID, 1)
	if len(resp.Leases) != 1 {
		t.Fatalf("leases = %d, want 1", len(resp.Leases))
	}
	l := resp.Leases[0]
	good := fakePayload(t, l)

	pad := func(prefix, suffix string) json.RawMessage {
		p := append(json.RawMessage(prefix), good...)
		return append(p, suffix...)
	}
	for name, payload := range map[string]json.RawMessage{
		"trailing newline": pad("", "\n"),
		"leading newline":  pad("\n", ""),
		"trailing space":   pad("", " "),
	} {
		disp, err := co.Complete(w.WorkerID, api.CompleteRequest{Fingerprint: l.Fingerprint, Result: payload})
		if disp != CompleteRejected {
			t.Fatalf("%s: disposition %d (%v), want rejected", name, disp, err)
		}
	}
	if got := counter(reg, MetricFleetCellsRejected); got != 3 {
		t.Fatalf("%s = %d, want 3", MetricFleetCellsRejected, got)
	}

	// The exact canonical bytes still merge and release the waiter.
	resp, _ = co.Lease(w.WorkerID, 1)
	if len(resp.Leases) != 1 || resp.Leases[0].Fingerprint != l.Fingerprint {
		t.Fatalf("re-lease after rejections = %+v", resp.Leases)
	}
	if disp, err := co.Complete(w.WorkerID, api.CompleteRequest{Fingerprint: l.Fingerprint, Result: good}); disp != CompleteMerged {
		t.Fatalf("canonical completion = %v (%v), want merged", disp, err)
	}
	if o := <-out; o.err != nil {
		t.Fatalf("waiter: %v", o.err)
	}
}

// TestCoordinatorCountsCacheHitCompletions: the Cached flag on merged
// completions feeds fleet_cells_cache_hit; a rejected payload's flag and a
// stale re-delivery's count for nothing.
func TestCoordinatorCountsCacheHitCompletions(t *testing.T) {
	reg := metrics.NewRegistry()
	co := NewCoordinator(CoordinatorOptions{LeaseTTL: time.Minute, Metrics: reg})
	defer co.Close()

	out := startCell(context.Background(), co, 7, "nt4/business/cachehit/0", cellConfig(time.Millisecond))
	waitFor(t, "cell enqueued", func() bool { return co.Status().Pending == 1 })
	w, _ := co.Register("cached")
	resp, _ := co.Lease(w.WorkerID, 1)
	l := resp.Leases[0]

	// A rejected cached payload must not count.
	bad := append(append(json.RawMessage(nil), fakePayload(t, l)...), '\n')
	if disp, _ := co.Complete(w.WorkerID, api.CompleteRequest{Fingerprint: l.Fingerprint, Result: bad, Cached: true}); disp != CompleteRejected {
		t.Fatalf("padded payload disposition %d, want rejected", disp)
	}
	if got := counter(reg, MetricFleetCellsCacheHit); got != 0 {
		t.Fatalf("%s = %d after rejection, want 0", MetricFleetCellsCacheHit, got)
	}

	resp, _ = co.Lease(w.WorkerID, 1)
	l = resp.Leases[0]
	if disp, err := co.Complete(w.WorkerID, api.CompleteRequest{Fingerprint: l.Fingerprint, Result: fakePayload(t, l), Cached: true}); disp != CompleteMerged {
		t.Fatalf("cached merge = %v (%v)", disp, err)
	}
	if o := <-out; o.err != nil {
		t.Fatalf("waiter: %v", o.err)
	}
	// The straggler's retry of the same cached cell is stale, not a hit.
	if disp, _ := co.Complete(w.WorkerID, api.CompleteRequest{Fingerprint: l.Fingerprint, Result: fakePayload(t, l), Cached: true}); disp != CompleteUnknown {
		t.Fatalf("retried completion disposition %d, want unknown", disp)
	}
	if got := counter(reg, MetricFleetCellsCacheHit); got != 1 {
		t.Fatalf("%s = %d, want 1 (the merge only)", MetricFleetCellsCacheHit, got)
	}
}

// TestCoordinatorStaleCompletionsAreUnknown pins what a coordinator that
// remembers live cells only answers to the three completions that find no
// pending or leased task: a re-delivery of a cell whose ExecuteRemote has
// returned, a cell of a cancelled campaign, and a fingerprint a previous
// coordinator merged before a restart. Each is CompleteUnknown, merges
// nothing, is no cache hit, and counts once as stale; and once every
// campaign has ended the task table is empty.
func TestCoordinatorStaleCompletionsAreUnknown(t *testing.T) {
	// The previous incarnation merges one cell, then goes away.
	prev := NewCoordinator(CoordinatorOptions{LeaseTTL: time.Minute})
	before := startCell(context.Background(), prev, 7, "nt4/business/restart/0", cellConfig(time.Millisecond))
	waitFor(t, "cell enqueued", func() bool { return prev.Status().Pending == 1 })
	pw, _ := prev.Register("first-life")
	resp, _ := prev.Lease(pw.WorkerID, 1)
	restarted := resp.Leases[0]
	if disp, err := prev.Complete(pw.WorkerID, api.CompleteRequest{Fingerprint: restarted.Fingerprint, Result: fakePayload(t, restarted)}); disp != CompleteMerged {
		t.Fatalf("merge before restart = %v (%v)", disp, err)
	}
	if o := <-before; o.err != nil {
		t.Fatalf("waiter before restart: %v", o.err)
	}
	prev.Close()

	reg := metrics.NewRegistry()
	co := NewCoordinator(CoordinatorOptions{LeaseTTL: time.Minute, Metrics: reg})
	defer co.Close()
	w, _ := co.Register("")

	merged := startCell(context.Background(), co, 7, "nt4/business/stale/0", cellConfig(time.Millisecond))
	waitFor(t, "cell enqueued", func() bool { return co.Status().Pending == 1 })
	resp, _ = co.Lease(w.WorkerID, 1)
	done := resp.Leases[0]
	if disp, err := co.Complete(w.WorkerID, api.CompleteRequest{Fingerprint: done.Fingerprint, Result: fakePayload(t, done)}); disp != CompleteMerged {
		t.Fatalf("first completion = %v (%v)", disp, err)
	}
	if o := <-merged; o.err != nil {
		t.Fatalf("waiter: %v", o.err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	abandoned := startCell(ctx, co, 7, "nt4/business/stale/1", cellConfig(2*time.Millisecond))
	waitFor(t, "cell enqueued", func() bool { return co.Status().Pending == 1 })
	resp, _ = co.Lease(w.WorkerID, 1)
	cancelled := resp.Leases[0]
	cancel()
	if o := <-abandoned; !errors.Is(o.err, context.Canceled) {
		t.Fatalf("cancelled waiter err = %v", o.err)
	}

	for i, l := range []api.Lease{done, cancelled, restarted} {
		disp, err := co.Complete(w.WorkerID, api.CompleteRequest{Fingerprint: l.Fingerprint, Result: fakePayload(t, l), Cached: true})
		if disp != CompleteUnknown || err == nil {
			t.Fatalf("stale completion %d (%s): disposition %d err %v, want unknown", i, l.Key, disp, err)
		}
		if got := counter(reg, MetricFleetStaleDone); got != uint64(i+1) {
			t.Fatalf("after stale completion %d: %s = %d, want %d", i, MetricFleetStaleDone, got, i+1)
		}
	}
	if got := counter(reg, MetricFleetCellsCompleted); got != 1 {
		t.Errorf("%s = %d, want 1", MetricFleetCellsCompleted, got)
	}
	if got := counter(reg, MetricFleetCellsCacheHit); got != 0 {
		t.Errorf("%s = %d, want 0", MetricFleetCellsCacheHit, got)
	}
	co.mu.Lock()
	live := len(co.tasks)
	co.mu.Unlock()
	if live != 0 {
		t.Errorf("%d tasks remembered after every campaign ended, want 0", live)
	}
	if st := co.Status(); st.Pending != 0 || st.Leased != 0 {
		t.Errorf("status pending=%d leased=%d, want 0/0", st.Pending, st.Leased)
	}
}
