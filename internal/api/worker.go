package api

// Fleet-mode wire types: the worker side of the coordinator protocol.
//
// A coordinator (latserved -fleet) shards a campaign's cells across
// registered workers by checkpoint-store fingerprint. The protocol is four
// idempotent POSTs — everything a worker sends is safe to retry through
// the client's usual backoff, because the unit of work is content-
// addressed:
//
//	POST /v1/workers                 register        -> RegisterResponse
//	POST /v1/workers/{id}/heartbeat  stay alive      -> 204 (410: re-register)
//	POST /v1/workers/{id}/leases     claim next cell -> LeaseResponse
//	POST /v1/workers/{id}/complete   deliver a cell  -> 200 merged (410: no live cell, 422: rejected)
//	GET  /v1/fleet                   observability   -> FleetStatus
//
// A lease request has no body and claims at most one cell; a worker that
// runs several cells at once keeps one lease loop per cell.
//
// A lease carries the cell's complete identity: base seed, key, and the
// final RunConfig with the per-cell seed already derived (sim.DeriveSeed —
// never a worker index), plus the store fingerprint over all of it. The
// worker re-derives the fingerprint before executing (Lease.Verify): a
// mismatch means the worker's code computes different results than the
// coordinator expects — wrong codec version, diverged simulator — and the
// only safe move is to refuse the work loudly, because a fleet is only
// defensible while every worker is bit-for-bit interchangeable.

import (
	"encoding/json"
	"fmt"

	"wdmlat/internal/campaign/store"
	"wdmlat/internal/core"
)

// RegisterRequest is the POST /v1/workers body.
type RegisterRequest struct {
	// Name is a human label for logs and /v1/fleet; uniqueness is not
	// required (the coordinator assigns the id).
	Name string `json:"name"`
}

// RegisterResponse tells a fresh worker who it is and how to behave.
type RegisterResponse struct {
	// WorkerID is the coordinator-assigned identity every subsequent call
	// is keyed by.
	WorkerID string `json:"worker_id"`
	// LeaseTTLMillis is how long the coordinator waits between heartbeats
	// before declaring the worker dead and re-dispatching its leases.
	LeaseTTLMillis int64 `json:"lease_ttl_ms"`
	// PollMillis is the coordinator's hint for how often an idle worker
	// should re-ask for leases.
	PollMillis int64 `json:"poll_ms"`
}

// Lease is one cell the coordinator has assigned to a worker.
type Lease struct {
	// Fingerprint is the cell's checkpoint-store content address
	// (store.Fingerprint over BaseSeed, Key and Config) — the identity
	// completion is keyed by, and the name its result is cached under.
	Fingerprint string `json:"fingerprint"`
	// BaseSeed is the owning campaign's seed; Key is the cell's stable
	// key; Config is the final run configuration, per-cell seed included.
	BaseSeed uint64         `json:"base_seed"`
	Key      string         `json:"key"`
	Config   core.RunConfig `json:"config"`
}

// Verify re-derives the lease's fingerprint from its own fields. A
// mismatch means this worker binary would compute a result the coordinator
// must not merge (diverged codec or simulation); the worker refuses the
// lease and exits rather than poisoning the campaign.
func (l *Lease) Verify() error {
	if fp := store.Fingerprint(l.BaseSeed, l.Key, l.Config); fp != l.Fingerprint {
		return fmt.Errorf("api: lease %q: fingerprint mismatch (coordinator %s, worker derives %s): worker and coordinator disagree on cell identity",
			l.Key, short(l.Fingerprint), short(fp))
	}
	return nil
}

func short(fp string) string {
	if len(fp) > 12 {
		return fp[:12]
	}
	return fp
}

// LeaseResponse carries the granted lease: Leases holds at most one. It
// stays an array so that a worker or coordinator that asks for or grants
// several cells per call still interoperates. Empty Leases with Draining
// false means "no work right now, poll again"; Draining true means the
// coordinator is shutting down and the worker should finish what it holds
// and exit.
type LeaseResponse struct {
	Leases   []Lease `json:"leases"`
	Draining bool    `json:"draining,omitempty"`
}

// CompleteRequest is the POST /v1/workers/{id}/complete body: one finished
// cell. Exactly one of Result and Error is set. Result holds the cell's
// canonical payload (EncodeCellResult: the core.EncodeResult document sans
// trailing newline — the same content a local checkpoint file holds),
// which the coordinator independently validates before merging: it must
// decode through the canonical-only result parser, must not end in a
// newline, and its embedded config must re-derive the leased fingerprint.
// Completion is idempotent: a delivery that finds no pending or leased
// cell — already merged, its campaign cancelled, or leased before a
// coordinator restart — is answered 410 and merges nothing.
type CompleteRequest struct {
	Fingerprint string          `json:"fingerprint"`
	Result      json.RawMessage `json:"result,omitempty"`
	// Error reports a deterministic execution failure (e.g. a recovered
	// panic). The coordinator fails the cell instead of re-dispatching:
	// results are pure functions of the lease, so another worker would
	// fail identically.
	Error string `json:"error,omitempty"`
	// Cached reports that the worker answered from its checkpoint store
	// instead of executing — a re-dispatched cell some worker already
	// finished. Purely telemetry (fleet_cells_cache_hit); the payload is
	// validated identically either way.
	Cached bool `json:"cached,omitempty"`
}

// Validate rejects completion bodies that could not possibly be merged.
func (c *CompleteRequest) Validate() error {
	if c.Fingerprint == "" {
		return fmt.Errorf("api: completion without a fingerprint")
	}
	if (len(c.Result) == 0) == (c.Error == "") {
		return fmt.Errorf("api: completion must carry exactly one of result and error")
	}
	if c.Cached && len(c.Result) == 0 {
		return fmt.Errorf("api: cached completion without a result")
	}
	return nil
}

// EncodeCellResult produces the canonical completion payload for a result:
// the document core.AppendResult encodes, returned without its trailing
// newline, which stays in the slice's capacity, so append(payload, '\n')
// is the checkpoint document without a copy. The strip matters because the
// payload travels embedded in the CompleteRequest JSON as a RawMessage,
// and encoding/json compacts raw values in transit — a payload defined
// with the newline would arrive one byte short of itself and never survive
// the coordinator's byte-exact canonical check. Workers use this so the
// bytes they deliver are the bytes a local run would have checkpointed.
func EncodeCellResult(res *core.Result) (json.RawMessage, error) {
	doc, err := core.AppendResult(nil, res)
	if err != nil {
		return nil, err
	}
	return doc[:len(doc)-1], nil
}

// WorkerStatus is one worker's row in GET /v1/fleet.
type WorkerStatus struct {
	ID   string `json:"id"`
	Name string `json:"name,omitempty"`
	// Leases is the number of cells the worker currently holds.
	Leases int `json:"leases"`
	// IdleMillis is how long ago the worker's last heartbeat (or any
	// other call) arrived.
	IdleMillis int64 `json:"idle_ms"`
}

// FleetStatus is the GET /v1/fleet body: the coordinator's live view of
// its workers and dispatch queue, for operators and the horde smoke test.
type FleetStatus struct {
	Workers []WorkerStatus `json:"workers"`
	// Pending counts cells queued for dispatch; Leased counts cells
	// currently out with workers.
	Pending int `json:"pending"`
	Leased  int `json:"leased"`
	// Draining reports a coordinator that has stopped granting leases.
	Draining bool `json:"draining"`
}
