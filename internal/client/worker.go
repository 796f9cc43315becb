package client

// The fleet worker loop: the other half of the coordinator protocol in
// internal/server. A worker registers, then cycles lease → verify →
// execute → complete while a background heartbeat keeps its leases alive.
// Everything it sends rides the same Backoff schedule as the rest of the
// client, and every message is idempotent — a retried completion of an
// already-merged cell finds no live task and is answered 410, which the
// worker drops — so the loop
// survives dropped connections, coordinator restarts (a session that dies
// on a transport failure re-registers instead of exiting, so a worker
// outlives arbitrary coordinator downtime once it has registered), and
// its own expiry (a 410 from any call sends it back through registration
// with a fresh identity; its old leases are re-dispatched, and if it
// already finished one, the straggler completion still merges).
//
// With a Store attached the worker is checkpoint-backed: every lease is
// looked up by fingerprint before executing — a hit (its own earlier run,
// a neighbor sharing the directory, or a cell delivered whose completion
// was lost to a coordinator restart) is delivered as-is and flagged
// Cached, and every executed result is persisted before delivery. The
// store's codec round-trips exactly, so a cached payload is byte-for-byte
// the payload a fresh execution would deliver.
//
// The load-bearing check is Lease.Verify: before executing, the worker
// re-derives the cell's checkpoint fingerprint from the lease's own fields
// (base seed, key, config — including the result codec version baked into
// the fingerprint). A mismatch means this binary would compute bytes the
// coordinator must never merge, so RunWorker returns the error instead of
// continuing: a fleet is only sound while every worker is bit-for-bit
// interchangeable, and a version-skewed worker is not.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"sync"
	"time"

	"wdmlat/internal/api"
	"wdmlat/internal/campaign/store"
	"wdmlat/internal/core"
)

// WorkerOptions tunes RunWorker.
type WorkerOptions struct {
	// Name labels the worker in coordinator logs and /v1/fleet.
	Name string
	// Cells bounds how many leased cells execute concurrently (default 1;
	// one cell already saturates a core, so raise it only on big hosts).
	Cells int
	// Execute overrides the cell executor, core.Run — tests inject fakes
	// and saboteurs. Must stay a pure function of its config.
	Execute func(core.RunConfig) *core.Result
	// OnCell, if non-nil, is called after each completed cell with the
	// cell key and the execution error (nil on success) — a logging hook.
	OnCell func(key string, err error)
	// Store, if non-nil, is the worker's local (or host-shared) checkpoint
	// store: leases are answered from it by fingerprint when possible
	// (reported Cached to the coordinator) and executed results are
	// persisted to it before delivery, so a re-dispatched straggler cell
	// costs a disk read instead of a re-simulation. Load failures fall
	// back to execution; Save failures are surfaced on OnCell only —
	// persistence is an optimization, never a correctness dependency.
	Store *store.Store
}

// ErrWorkerSkew is wrapped by RunWorker when a lease fails verification:
// the worker and coordinator disagree about cell identity (diverged codec
// or simulator version) and the worker must not execute fleet work.
var ErrWorkerSkew = errors.New("worker/coordinator version skew")

// RunWorker registers against the server's coordinator and processes
// leases until ctx is cancelled (returns ctx.Err()), the coordinator
// drains (returns nil), or a lease fails verification (returns
// ErrWorkerSkew). Losing its registration — expired by the coordinator
// after missed heartbeats, or a coordinator restart — is not fatal: the
// worker re-registers and continues. Nor is losing the coordinator
// entirely: a session that dies on a transport failure re-registers too,
// and once a worker has registered successfully it keeps retrying
// registration through arbitrary downtime (each cycle carries the
// client's full backoff budget), so a coordinator SIGKILLed mid-campaign
// finds its fleet waiting when it comes back. Only the first registration
// is fail-fast — a misconfigured worker should die loudly, not camp on a
// URL that never answers — and a coordinator that answers with a
// conclusive protocol verdict (e.g. 404: not in fleet mode) is fatal at
// any point.
func (c *Client) RunWorker(ctx context.Context, opts WorkerOptions) error {
	if opts.Cells < 1 {
		opts.Cells = 1
	}
	if opts.Execute == nil {
		opts.Execute = core.Run
	}
	registered := false
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		reg, err := c.register(ctx, opts.Name)
		if err != nil {
			var se *StatusError
			if !registered || ctx.Err() != nil || isStatusError(err, &se) {
				// Never-registered, cancelled, or a conclusive verdict
				// (do() returns a bare *StatusError only for statuses it
				// will not retry): give up. Transport failures arrive
				// wrapped and fall through to another paced attempt.
				return fmt.Errorf("client: worker registration: %w", err)
			}
			continue // register's own backoff paces this loop
		}
		registered = true
		err = c.workerSession(ctx, reg, opts)
		switch {
		case errors.Is(err, errWorkerGone):
			continue // identity lost (expired or coordinator restart): re-register
		case err == nil, errors.Is(err, ErrWorkerSkew), ctx.Err() != nil:
			return err
		default:
			// The session died on a transport failure (coordinator
			// restart or partition), not a protocol verdict: re-register.
			// Paced, so a coordinator that accepts registrations but
			// fails sessions cannot induce a hot loop.
			if serr := c.opts.Sleep(ctx, time.Second); serr != nil {
				return serr
			}
		}
	}
}

// errWorkerGone is the internal signal that the coordinator no longer
// knows this worker id (HTTP 410): the session ends and RunWorker starts a
// fresh one.
var errWorkerGone = errors.New("worker identity gone")

func (c *Client) register(ctx context.Context, name string) (api.RegisterResponse, error) {
	body, err := json.Marshal(api.RegisterRequest{Name: name})
	if err != nil {
		return api.RegisterResponse{}, err
	}
	data, err := c.do(ctx, http.MethodPost, "/v1/workers", body)
	if err != nil {
		return api.RegisterResponse{}, err
	}
	var reg api.RegisterResponse
	if err := json.Unmarshal(data, &reg); err != nil {
		return api.RegisterResponse{}, fmt.Errorf("decoding registration: %w", err)
	}
	if reg.WorkerID == "" {
		return api.RegisterResponse{}, errors.New("coordinator assigned no worker id")
	}
	return reg, nil
}

// workerSession drives one registered identity: a heartbeat ticker at a
// third of the lease TTL, and a lease/execute/complete loop with up to
// opts.Cells cells in flight. It returns errWorkerGone when any call
// answers 410, nil when the coordinator drains, ctx.Err() on cancellation.
func (c *Client) workerSession(ctx context.Context, reg api.RegisterResponse, opts WorkerOptions) error {
	sessionCtx, cancel := context.WithCancel(ctx)

	ttl := time.Duration(reg.LeaseTTLMillis) * time.Millisecond
	if ttl <= 0 {
		ttl = 10 * time.Second
	}
	poll := time.Duration(reg.PollMillis) * time.Millisecond
	if poll <= 0 {
		poll = 500 * time.Millisecond
	}

	// Heartbeat in the background; its failure modes surface on beatErr
	// and end the session (gone → re-register upstream).
	beatErr := make(chan error, 1)
	var wg sync.WaitGroup     // heartbeat goroutine
	var execWG sync.WaitGroup // in-flight cells
	defer func() {
		// Cancellation must precede the waits or the heartbeat ticker
		// would keep a drained session alive forever.
		cancel()
		execWG.Wait()
		wg.Wait()
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(ttl / 3)
		defer t.Stop()
		for {
			select {
			case <-sessionCtx.Done():
				return
			case <-t.C:
				if err := c.heartbeat(sessionCtx, reg.WorkerID); err != nil {
					select {
					case beatErr <- err:
					default:
					}
					return
				}
			}
		}
	}()

	// sem bounds in-flight cells; executions run in goroutines so a slow
	// cell never blocks leasing the next one.
	sem := make(chan struct{}, opts.Cells)
	cellErr := make(chan error, 1)

	for {
		select {
		case err := <-beatErr:
			return err
		case err := <-cellErr:
			return err // fatal (skew): the deferred cancel drains in-flight cells
		case <-sessionCtx.Done():
			return ctx.Err()
		case sem <- struct{}{}:
		}

		// Ask for as many cells as we have free slots (the one just
		// reserved plus any others idle).
		free := 1
		for len(sem) < cap(sem) {
			select {
			case sem <- struct{}{}:
				free++
			default:
			}
		}
		resp, err := c.lease(sessionCtx, reg.WorkerID, free)
		if err != nil {
			for i := 0; i < free; i++ {
				<-sem
			}
			return err
		}
		for i := len(resp.Leases); i < free; i++ {
			<-sem // slots the coordinator didn't fill
		}
		if resp.Draining {
			execWG.Wait()
			return nil
		}
		for i := range resp.Leases {
			l := resp.Leases[i]
			execWG.Add(1)
			go func() {
				defer execWG.Done()
				defer func() { <-sem }()
				if err := c.executeLease(sessionCtx, reg.WorkerID, l, opts); err != nil {
					select {
					case cellErr <- err:
					default:
					}
				}
			}()
		}
		if len(resp.Leases) == 0 {
			// Idle: wait the coordinator's poll hint before asking again.
			if err := c.opts.Sleep(sessionCtx, poll); err != nil {
				return ctx.Err()
			}
		}
	}
}

// executeLease verifies, resolves (checkpoint store first, simulator
// second) and delivers one cell. Only version skew is returned as an
// error; execution failures are reported to the coordinator (which fails
// the cell deterministically) and delivery problems are left to lease
// expiry — the coordinator re-dispatches, and this worker's eventual
// retry, if the cell merged meanwhile, is answered 410 and dropped.
func (c *Client) executeLease(ctx context.Context, workerID string, l api.Lease, opts WorkerOptions) error {
	if err := l.Verify(); err != nil {
		return fmt.Errorf("%w: %v", ErrWorkerSkew, err)
	}
	var res *core.Result
	var execErr, storeErr error
	cached := false
	if opts.Store != nil {
		// An unreadable or corrupt checkpoint falls back to execution —
		// re-running a cell is always safe; serving bad bytes never is
		// (the coordinator would reject them anyway).
		if hit, err := opts.Store.Load(l.Fingerprint); err == nil && hit != nil {
			res, cached = hit, true
		}
	}
	if !cached {
		res, execErr = runCellRecovering(opts.Execute, l.Config)
		if execErr == nil && opts.Store != nil {
			if err := opts.Store.Save(l.Fingerprint, res); err != nil {
				storeErr = fmt.Errorf("checkpointing cell: %w", err)
			}
		}
	}
	req := api.CompleteRequest{Fingerprint: l.Fingerprint, Cached: cached}
	if execErr != nil {
		req.Error = execErr.Error()
	} else {
		payload, err := api.EncodeCellResult(res)
		if err != nil {
			req.Error = fmt.Sprintf("encoding result: %v", err)
			req.Cached = false
			execErr = err
		} else {
			req.Result = payload
		}
	}
	if err := c.complete(ctx, workerID, req); err != nil {
		// Undeliverable (coordinator gone, cell re-dispatched, payload
		// rejected): lease expiry re-dispatches the cell, so dropping it
		// is safe. Surface it to the hook, not the session.
		execErr = errors.Join(execErr, err)
	}
	if opts.OnCell != nil {
		opts.OnCell(l.Key, errors.Join(execErr, storeErr))
	}
	return nil
}

// runCellRecovering executes one cell, converting a simulator panic into
// an error the coordinator records as that cell's deterministic failure.
func runCellRecovering(execute func(core.RunConfig) *core.Result, cfg core.RunConfig) (res *core.Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			res = nil
			err = fmt.Errorf("panic: %v\n%s", v, debug.Stack())
		}
	}()
	return execute(cfg), nil
}

func (c *Client) heartbeat(ctx context.Context, workerID string) error {
	_, err := c.do(ctx, http.MethodPost, "/v1/workers/"+workerID+"/heartbeat", nil)
	return mapGone(err)
}

func (c *Client) lease(ctx context.Context, workerID string, max int) (api.LeaseResponse, error) {
	body, err := json.Marshal(api.LeaseRequest{Max: max})
	if err != nil {
		return api.LeaseResponse{}, err
	}
	data, err := c.do(ctx, http.MethodPost, "/v1/workers/"+workerID+"/leases", body)
	if err != nil {
		return api.LeaseResponse{}, mapGone(err)
	}
	var resp api.LeaseResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return api.LeaseResponse{}, fmt.Errorf("decoding leases: %w", err)
	}
	return resp, nil
}

// complete delivers one finished cell. 410 (no pending or leased cell:
// already merged, campaign cancelled, or leased before a coordinator
// restart) and 422 (payload rejected; the coordinator already
// re-dispatched the cell) are swallowed: both mean "this copy of the work
// is no longer wanted".
func (c *Client) complete(ctx context.Context, workerID string, req api.CompleteRequest) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	_, err = c.do(ctx, http.MethodPost, "/v1/workers/"+workerID+"/complete", body)
	var se *StatusError
	if isStatusError(err, &se) && (se.Code == http.StatusGone || se.Code == http.StatusUnprocessableEntity) {
		return nil
	}
	return err
}

// Fleet fetches the coordinator's fleet status: registered workers, their
// outstanding leases, and queue depth. Fails with a *StatusError (404) when
// the server is not running in fleet mode.
func (c *Client) Fleet(ctx context.Context) (api.FleetStatus, error) {
	data, err := c.do(ctx, http.MethodGet, "/v1/fleet", nil)
	if err != nil {
		return api.FleetStatus{}, err
	}
	var st api.FleetStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return api.FleetStatus{}, fmt.Errorf("decoding fleet status: %w", err)
	}
	return st, nil
}

// mapGone converts an HTTP 410 into errWorkerGone so the session loop can
// re-register instead of giving up.
func mapGone(err error) error {
	var se *StatusError
	if isStatusError(err, &se) && se.Code == http.StatusGone {
		return errWorkerGone
	}
	return err
}
