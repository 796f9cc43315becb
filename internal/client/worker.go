package client

// The fleet worker loop: the other half of the coordinator protocol in
// internal/server. A worker registers, then runs WorkerOptions.Cells lease
// loops while a background heartbeat keeps its leases alive. Each loop
// holds at most one cell: it leases → verifies → executes → completes it,
// and only then asks for the next, as the paper's control application
// keeps one read IRP in flight. Everything it sends rides the same backoff
// schedule as the rest of the client, and every message is idempotent — a
// retried completion of an already-merged cell finds no live task and is
// answered 410, which the worker drops — so the loops survive dropped
// connections, coordinator restarts (a session that dies on a transport
// failure re-registers instead of exiting, so a worker outlives arbitrary
// coordinator downtime once it has registered), and the worker's own
// expiry (a 410 from any call sends it back through registration with a
// fresh identity; its old leases are re-dispatched, and if it already
// finished one, the straggler completion still merges).
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
	"sync/atomic"
	"time"

	"wdmlat/internal/api"
	"wdmlat/internal/campaign/store"
	"wdmlat/internal/core"
)

// WorkerOptions tunes RunWorker.
type WorkerOptions struct {
	// Name labels the worker in coordinator logs and /v1/fleet.
	Name string
	// Cells is the number of lease loops, each holding at most one cell,
	// so it bounds how many cells execute concurrently (default 1; one
	// cell already saturates a core, so raise it only on big hosts).
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
// third of the lease TTL, and opts.Cells lease loops, each asking for a
// cell only when it holds none. The first failure — a 410 from any call
// (errWorkerGone), a lease that fails verification, a failed lease call or
// heartbeat — cancels the other loops, which finish their cells, and is
// returned. A drain returns nil once every loop has delivered its cell;
// cancellation returns ctx.Err().
func (c *Client) workerSession(ctx context.Context, reg api.RegisterResponse, opts WorkerOptions) error {
	sessionCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	ttl := time.Duration(reg.LeaseTTLMillis) * time.Millisecond
	if ttl <= 0 {
		ttl = 10 * time.Second
	}
	poll := time.Duration(reg.PollMillis) * time.Millisecond
	if poll <= 0 {
		poll = 500 * time.Millisecond
	}

	// end records the session's outcome once and cancels the rest; the
	// errors that cancellation then causes are not the outcome.
	var once sync.Once
	var outcome error
	end := func(err error) {
		once.Do(func() { outcome = err; cancel() })
	}

	var beat sync.WaitGroup
	beat.Add(1)
	go func() {
		defer beat.Done()
		t := time.NewTicker(ttl / 3)
		defer t.Stop()
		for {
			select {
			case <-sessionCtx.Done():
				return
			case <-t.C:
				if err := c.heartbeat(sessionCtx, reg.WorkerID); err != nil {
					end(err)
					return
				}
			}
		}
	}()

	// draining is set by the first loop the coordinator tells to drain;
	// the others stop asking once their cell is delivered.
	var draining atomic.Bool
	leaseLoop := func() error {
		for !draining.Load() {
			resp, err := c.lease(sessionCtx, reg.WorkerID)
			if err != nil {
				return err
			}
			if resp.Draining {
				draining.Store(true)
				return nil
			}
			if len(resp.Leases) == 0 {
				// Idle: wait the coordinator's poll hint before asking again.
				if err := c.opts.Sleep(sessionCtx, poll); err != nil {
					return err
				}
			}
			for _, l := range resp.Leases {
				if err := c.executeLease(sessionCtx, reg.WorkerID, l, opts); err != nil {
					return err
				}
			}
		}
		return nil
	}
	var loops sync.WaitGroup
	loops.Add(opts.Cells)
	for i := 0; i < opts.Cells; i++ {
		go func() {
			defer loops.Done()
			if err := leaseLoop(); err != nil {
				end(err)
			}
		}()
	}
	loops.Wait()
	end(nil) // stops the heartbeat
	beat.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	return outcome
}

// executeLease verifies, resolves (checkpoint store first, simulator
// second) and delivers one cell. Each result is encoded once: a store hit
// delivers the stored document's bytes, and an executed cell's payload is
// both what it checkpoints (plus the newline) and what it delivers, saved
// before delivery so a re-dispatched lease finds it. Only version skew is
// returned as an error; execution failures are reported to the coordinator
// (which fails the cell deterministically) and delivery problems are left
// to lease expiry — the coordinator re-dispatches, and this worker's
// eventual retry, if the cell merged meanwhile, is answered 410 and
// dropped.
func (c *Client) executeLease(ctx context.Context, workerID string, l api.Lease, opts WorkerOptions) error {
	if err := l.Verify(); err != nil {
		return fmt.Errorf("%w: %v", ErrWorkerSkew, err)
	}
	req := api.CompleteRequest{Fingerprint: l.Fingerprint}
	var execErr, storeErr error
	if opts.Store != nil {
		// An unreadable or corrupt checkpoint falls back to execution —
		// re-running a cell is always safe; serving bad bytes never is
		// (the coordinator would reject them anyway).
		if doc, err := opts.Store.LoadBytes(l.Fingerprint); err == nil && doc != nil {
			req.Result, req.Cached = doc[:len(doc)-1], true
		}
	}
	if !req.Cached {
		var res *core.Result
		res, execErr = runCellRecovering(opts.Execute, l.Config)
		if execErr == nil {
			if req.Result, execErr = api.EncodeCellResult(res); execErr != nil {
				execErr = fmt.Errorf("encoding result: %w", execErr)
			}
		}
		if execErr != nil {
			req.Error = execErr.Error()
		} else if opts.Store != nil {
			if err := opts.Store.SaveBytes(l.Fingerprint, append(req.Result, '\n')); err != nil {
				storeErr = fmt.Errorf("checkpointing cell: %w", err)
			}
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

func (c *Client) lease(ctx context.Context, workerID string) (api.LeaseResponse, error) {
	data, err := c.do(ctx, http.MethodPost, "/v1/workers/"+workerID+"/leases", nil)
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
