package server

// The fleet coordinator: the state machine that turns one campaign process
// into N interchangeable worker processes without giving up a single byte
// of determinism.
//
// The unit of distribution is the checkpoint-store fingerprint. Every cell
// a campaign wants executed arrives through ExecuteRemote with its full
// identity (base seed, key, final config); the coordinator fingerprints it
// exactly as internal/campaign/store would, queues it, and leases it to
// whichever registered worker asks next. Because a cell's result is a pure
// function of that identity, the coordinator can be aggressively sloppy
// about *where* work runs — re-dispatching on worker death, tolerating
// stragglers that finish after being declared dead, deduplicating identical
// cells across concurrent campaigns — while the merged result stream stays
// byte-identical to a single-process run. The campaign runner still merges
// in submission order; the coordinator only ever changes who computed a
// cell, never what the cell is.
//
// Liveness is heartbeat-based: every authenticated worker call refreshes
// the worker's clock, and a janitor reclaims the leases of workers silent
// for longer than the lease TTL, returning their cells to the dispatch
// queue. Completion is validated before it is merged: the payload must
// decode through the exact result codec, re-encode to the identical bytes
// (canonical form), and its embedded config must re-derive the leased
// cell's fingerprint — a worker that returns a corrupt or wrong-cell payload is
// rejected and the cell re-dispatched, never merged.
//
// The coordinator remembers live cells only: a task leaves the table the
// moment its outcome is published, and the checkpoint store is the one
// record that a cell finished. A completion that finds no pending or
// leased task — the cell already merged, its campaign cancelled, or the
// coordinator restarted since the lease — is CompleteUnknown and counted
// stale; the worker drops it, which is what makes worker retries and
// straggler races safe.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"wdmlat/internal/api"
	"wdmlat/internal/campaign/store"
	"wdmlat/internal/core"
	"wdmlat/internal/metrics"
)

// Metric names the coordinator publishes on CoordinatorOptions.Metrics.
const (
	MetricFleetWorkersRegistered = "fleet_workers_registered" // registrations accepted
	MetricFleetWorkersActive     = "fleet_workers_active"     // gauge: live workers
	MetricFleetWorkersExpired    = "fleet_workers_expired"    // workers declared dead (heartbeat TTL)
	MetricFleetLeasesGranted     = "fleet_leases_granted"     // cells handed to workers
	MetricFleetLeasesReclaimed   = "fleet_leases_reclaimed"   // leases taken back from dead workers
	MetricFleetCellsCompleted    = "fleet_cells_completed"    // validated results merged
	MetricFleetCellsRejected     = "fleet_cells_rejected"     // corrupt/mismatched payloads refused
	MetricFleetCellsFailed       = "fleet_cells_failed"       // deterministic worker-reported failures
	MetricFleetCellsRedispatched = "fleet_cells_redispatched" // cells returned to the queue (reclaim or reject)
	MetricFleetStaleDone         = "fleet_completions_stale"  // completions with no pending or leased cell (dropped)
	MetricFleetQueueDepth        = "fleet_queue_depth"        // gauge: cells awaiting dispatch
	MetricFleetCellsLeased       = "fleet_cells_leased"       // gauge: cells out with workers
	MetricFleetCellsCacheHit     = "fleet_cells_cache_hit"    // merged completions answered from a worker's checkpoint store
)

// ErrDraining is returned by ExecuteRemote for cells that could not finish
// because the coordinator shut down.
var ErrDraining = errors.New("coordinator draining")

// CoordinatorOptions configures fleet mode.
type CoordinatorOptions struct {
	// LeaseTTL is how long a worker may go silent before it is declared
	// dead and its leases are re-dispatched. Default 10s.
	LeaseTTL time.Duration
	// Poll is the re-poll hint handed to idle workers. Default 500ms.
	Poll time.Duration
	// Metrics receives the fleet telemetry; nil disables collection.
	Metrics *metrics.Registry
	// Now overrides the clock (tests drive expiry deterministically).
	// Must be safe for concurrent use.
	Now func() time.Time
}

type coordMetrics struct {
	registered, expired                 *metrics.Counter
	granted, reclaimed                  *metrics.Counter
	completed, rejected, failed         *metrics.Counter
	redispatched, stale, cacheHit       *metrics.Counter
	workersActive, queueDepth, cellsOut *metrics.Gauge
}

// Task states. A task is one fingerprinted cell wanted by at least one
// campaign; pending and leased tasks move between the queue and workers.
// A done task has left the coordinator's table and holds a result or a
// deterministic failure for the ExecuteRemote waiters that still share it.
const (
	taskPending = iota
	taskLeased
	taskDone
)

type cellTask struct {
	lease api.Lease // full cell identity; lease.Fingerprint is the map key
	state int
	owner string // worker id while leased
	refs  int    // ExecuteRemote waiters sharing this task
	res   *core.Result
	err   error
	done  chan struct{} // closed exactly once, when state becomes taskDone
}

type fleetWorker struct {
	id, name string
	lastBeat time.Time
	leases   map[string]*cellTask
}

// Coordinator shards fingerprinted cells across registered workers. All
// methods are safe for concurrent use.
type Coordinator struct {
	opts CoordinatorOptions
	met  coordMetrics

	mu       sync.Mutex
	workers  map[string]*fleetWorker
	tasks    map[string]*cellTask // pending and leased cells, by fingerprint
	queue    []*cellTask          // pending dispatch, FIFO
	nextID   int
	draining bool

	janitorStop chan struct{}
	janitorDone chan struct{}
}

// NewCoordinator returns a running coordinator (its reclaim janitor is
// started); Close it on shutdown.
func NewCoordinator(opts CoordinatorOptions) *Coordinator {
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = 10 * time.Second
	}
	if opts.Poll <= 0 {
		opts.Poll = 500 * time.Millisecond
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	reg := opts.Metrics
	co := &Coordinator{
		opts: opts,
		met: coordMetrics{
			registered:    reg.Counter(MetricFleetWorkersRegistered),
			expired:       reg.Counter(MetricFleetWorkersExpired),
			granted:       reg.Counter(MetricFleetLeasesGranted),
			reclaimed:     reg.Counter(MetricFleetLeasesReclaimed),
			completed:     reg.Counter(MetricFleetCellsCompleted),
			rejected:      reg.Counter(MetricFleetCellsRejected),
			failed:        reg.Counter(MetricFleetCellsFailed),
			redispatched:  reg.Counter(MetricFleetCellsRedispatched),
			stale:         reg.Counter(MetricFleetStaleDone),
			cacheHit:      reg.Counter(MetricFleetCellsCacheHit),
			workersActive: reg.Gauge(MetricFleetWorkersActive),
			queueDepth:    reg.Gauge(MetricFleetQueueDepth),
			cellsOut:      reg.Gauge(MetricFleetCellsLeased),
		},
		workers:     map[string]*fleetWorker{},
		tasks:       map[string]*cellTask{},
		janitorStop: make(chan struct{}),
		janitorDone: make(chan struct{}),
	}
	go co.janitor()
	return co
}

// janitor periodically reclaims the leases of workers whose heartbeats
// stopped. The scan interval divides the TTL so a dead worker is detected
// within ~1.25 TTLs; expiry decisions use opts.Now, so tests with an
// injected clock stay deterministic regardless of the wall-clock ticker.
func (co *Coordinator) janitor() {
	defer close(co.janitorDone)
	t := time.NewTicker(co.opts.LeaseTTL / 4)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			co.Reclaim()
		case <-co.janitorStop:
			return
		}
	}
}

// Register admits a worker and returns its identity and cadence contract.
// ok is false while the coordinator is draining: the janitor is already
// stopped, so a worker admitted now would sit in co.workers (and hold the
// fleet_workers_active gauge) forever — refuse it instead, and let the
// server answer 503 so the worker's backoff retries land on the next
// coordinator incarnation.
func (co *Coordinator) Register(name string) (api.RegisterResponse, bool) {
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.draining {
		return api.RegisterResponse{}, false
	}
	co.nextID++
	w := &fleetWorker{
		id:       "w" + strconv.Itoa(co.nextID),
		name:     name,
		lastBeat: co.opts.Now(),
		leases:   map[string]*cellTask{},
	}
	co.workers[w.id] = w
	co.met.registered.Inc()
	co.met.workersActive.Inc()
	return api.RegisterResponse{
		WorkerID:       w.id,
		LeaseTTLMillis: co.opts.LeaseTTL.Milliseconds(),
		PollMillis:     co.opts.Poll.Milliseconds(),
	}, true
}

// Heartbeat refreshes a worker's liveness. Unknown workers (never
// registered, or expired and reclaimed) report false: the worker must
// re-register before it can lease again.
func (co *Coordinator) Heartbeat(workerID string) bool {
	co.mu.Lock()
	defer co.mu.Unlock()
	w, ok := co.workers[workerID]
	if !ok {
		return false
	}
	w.lastBeat = co.opts.Now()
	return true
}

// Lease hands up to max pending cells to the worker. ok is false for
// unknown workers. An empty grant with Draining set tells the worker to
// finish up and exit.
func (co *Coordinator) Lease(workerID string, max int) (resp api.LeaseResponse, ok bool) {
	if max < 1 {
		max = 1
	}
	co.mu.Lock()
	defer co.mu.Unlock()
	w, wok := co.workers[workerID]
	if !wok {
		return api.LeaseResponse{}, false
	}
	w.lastBeat = co.opts.Now()
	if co.draining {
		return api.LeaseResponse{Draining: true}, true
	}
	for len(resp.Leases) < max && len(co.queue) > 0 {
		t := co.queue[0]
		co.queue = co.queue[1:]
		t.state = taskLeased
		t.owner = w.id
		w.leases[t.lease.Fingerprint] = t
		resp.Leases = append(resp.Leases, t.lease)
		co.met.granted.Inc()
		co.met.queueDepth.Dec()
		co.met.cellsOut.Inc()
	}
	return resp, true
}

// Completion dispositions, mapped to HTTP statuses by the server handlers.
type CompleteDisposition int

const (
	CompleteMerged   CompleteDisposition = iota // validated and merged (or failure recorded)
	CompleteUnknown                             // no pending or leased cell; worker drops it
	CompleteRejected                            // corrupt payload; cell re-dispatched
)

// Complete delivers one finished cell from a worker. The worker need not
// still be registered — a straggler that was declared dead can still land
// its result, and the copy the re-dispatched worker delivers later finds
// no live task and is CompleteUnknown. Payloads are validated before they
// can reach a campaign: decode through the exact codec, canonical
// re-encode, and fingerprint re-derivation from the embedded config must
// all agree, or the payload is rejected and the cell goes back to the
// queue.
func (co *Coordinator) Complete(workerID string, req api.CompleteRequest) (CompleteDisposition, error) {
	if err := req.Validate(); err != nil {
		return CompleteRejected, err
	}

	// Validate the payload outside the lock: decoding a large result is
	// real work, and the verdict depends only on the bytes.
	var res *core.Result
	var valErr error
	if len(req.Result) > 0 {
		res, valErr = decodeCanonical(req.Result)
	}

	co.mu.Lock()
	defer co.mu.Unlock()
	if w, ok := co.workers[workerID]; ok {
		w.lastBeat = co.opts.Now()
	}
	t, ok := co.tasks[req.Fingerprint]
	if !ok {
		co.met.stale.Inc()
		return CompleteUnknown, fmt.Errorf("no pending or leased cell with fingerprint %s", req.Fingerprint)
	}
	if req.Error != "" {
		// A deterministic execution failure: re-dispatching would fail
		// identically on every worker, so record it and release waiters.
		co.met.failed.Inc()
		co.finishLocked(t, nil, fmt.Errorf("cell %q failed on worker %s: %s", t.lease.Key, workerID, req.Error))
		return CompleteMerged, nil
	}
	if valErr == nil {
		// The simulator embeds the normalized config (defaults filled), so
		// the lease's config is normalized before the fingerprints can be
		// compared — a mismatch means the payload answers a different cell.
		want := store.Fingerprint(t.lease.BaseSeed, t.lease.Key, t.lease.Config.Normalized())
		if fp := store.Fingerprint(t.lease.BaseSeed, t.lease.Key, res.Config); fp != want {
			valErr = fmt.Errorf("payload config re-derives fingerprint %s, leased cell is %s", short(fp), short(want))
		}
	}
	if valErr != nil {
		// Corrupt payload: never merged. A leased cell goes back to the
		// queue for a healthy worker; a pending one (straggler corrupting
		// a cell Reclaim already requeued) is in the queue already, and
		// appending it again would lease the same cell to two workers.
		co.met.rejected.Inc()
		if t.state == taskLeased {
			co.requeueLocked(t)
		}
		return CompleteRejected, fmt.Errorf("cell %q from worker %s rejected: %w", t.lease.Key, workerID, valErr)
	}
	co.met.completed.Inc()
	if req.Cached {
		co.met.cacheHit.Inc()
	}
	co.finishLocked(t, res, nil)
	return CompleteMerged, nil
}

// decodeCanonical decodes a completion payload through the exact result
// codec and insists the decoded form re-encodes to the identical bytes —
// a payload that survives is indistinguishable from a local checkpoint.
// The comparison is byte-exact: the canonical wire form is the
// core.EncodeResult document without its trailing newline (the form
// api.EncodeCellResult produces), and any padding — whitespace included —
// is a rejection, so a merged cell is exactly one byte sequence per
// fingerprint: the one a local checkpoint holds.
func decodeCanonical(payload []byte) (*core.Result, error) {
	res, err := core.DecodeResult(bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	var round bytes.Buffer
	if err := core.EncodeResult(&round, res); err != nil {
		return nil, err
	}
	canon := bytes.TrimSuffix(round.Bytes(), []byte("\n"))
	if !bytes.Equal(canon, payload) {
		return nil, errors.New("payload is not the canonical result encoding")
	}
	return res, nil
}

func short(fp string) string {
	if len(fp) > 12 {
		return fp[:12]
	}
	return fp
}

// finishLocked publishes a task's terminal outcome, releases its waiters
// and forgets it: the waiters keep their *cellTask, and a later completion
// for the fingerprint finds no task.
func (co *Coordinator) finishLocked(t *cellTask, res *core.Result, err error) {
	switch t.state {
	case taskLeased:
		co.releaseLocked(t)
	case taskPending:
		// A straggler can finish a cell Reclaim already requeued, before
		// any re-lease. The done task must leave the queue, or a later
		// Lease would grant it again — a ghost lease that clobbers the
		// published outcome and leaks the leased-cells gauge.
		co.dequeueLocked(t)
	}
	t.state = taskDone
	t.res, t.err = res, err
	close(t.done)
	delete(co.tasks, t.lease.Fingerprint)
}

// releaseLocked detaches a leased task from its owner.
func (co *Coordinator) releaseLocked(t *cellTask) {
	if w, ok := co.workers[t.owner]; ok {
		delete(w.leases, t.lease.Fingerprint)
	}
	t.owner = ""
	co.met.cellsOut.Dec()
}

// dequeueLocked removes a pending task from the dispatch queue.
func (co *Coordinator) dequeueLocked(t *cellTask) {
	for i, q := range co.queue {
		if q == t {
			co.queue = append(co.queue[:i], co.queue[i+1:]...)
			co.met.queueDepth.Dec()
			return
		}
	}
}

// requeueLocked returns a task to the dispatch queue.
func (co *Coordinator) requeueLocked(t *cellTask) {
	if t.state == taskLeased {
		co.releaseLocked(t)
	}
	t.state = taskPending
	co.queue = append(co.queue, t)
	co.met.redispatched.Inc()
	co.met.queueDepth.Inc()
}

// Reclaim expires every worker whose last heartbeat is older than the
// lease TTL and returns its leased cells to the queue. The janitor calls
// it on a timer; tests call it directly against an injected clock.
func (co *Coordinator) Reclaim() {
	now := co.opts.Now()
	co.mu.Lock()
	defer co.mu.Unlock()
	for id, w := range co.workers {
		if now.Sub(w.lastBeat) <= co.opts.LeaseTTL {
			continue
		}
		// Reclaim the dead worker's leases first, then the identity: a
		// worker that went silent mid-cell gets its cells re-dispatched
		// (free re-execution when a straggler already checkpointed them).
		for _, t := range w.leases {
			co.met.reclaimed.Inc()
			co.requeueLocked(t)
		}
		delete(co.workers, id)
		co.met.expired.Inc()
		co.met.workersActive.Dec()
	}
}

// ExecuteRemote runs one fingerprinted cell on the fleet: enqueue (or join
// the identical in-flight cell — concurrent campaigns wanting the same
// fingerprint share one execution), wait for a validated completion, and
// return the decoded result. It fails with ctx's error on cancellation and
// ErrDraining if the coordinator shuts down first. This is the campaign
// runner's ExecuteCell seam, so an error here fails one cell, not the
// campaign process.
func (co *Coordinator) ExecuteRemote(ctx context.Context, baseSeed uint64, key string, cfg core.RunConfig) (*core.Result, error) {
	fp := store.Fingerprint(baseSeed, key, cfg)
	co.mu.Lock()
	if co.draining {
		co.mu.Unlock()
		return nil, fmt.Errorf("cell %q: %w", key, ErrDraining)
	}
	t, ok := co.tasks[fp]
	if !ok {
		t = &cellTask{
			lease: api.Lease{Fingerprint: fp, BaseSeed: baseSeed, Key: key, Config: cfg},
			state: taskPending,
			done:  make(chan struct{}),
		}
		co.tasks[fp] = t
		co.queue = append(co.queue, t)
		co.met.queueDepth.Inc()
	}
	t.refs++
	co.mu.Unlock()

	select {
	case <-t.done:
	case <-ctx.Done():
	}

	co.mu.Lock()
	defer co.mu.Unlock()
	t.refs--
	switch {
	case t.state == taskDone:
		return t.res, t.err
	case t.refs > 0:
		// Another campaign still wants this cell; leave it in flight.
		return nil, ctx.Err()
	default:
		// Last waiter gone: retract the cell. If it is pending, pull it
		// out of the queue; if leased, orphan it — a late completion gets
		// CompleteUnknown and the worker moves on.
		if t.state == taskPending {
			co.dequeueLocked(t)
		} else {
			co.releaseLocked(t)
		}
		delete(co.tasks, fp)
		return nil, ctx.Err()
	}
}

// Status reports the fleet for GET /v1/fleet, workers sorted by id.
func (co *Coordinator) Status() api.FleetStatus {
	now := co.opts.Now()
	co.mu.Lock()
	defer co.mu.Unlock()
	st := api.FleetStatus{Draining: co.draining, Pending: len(co.queue)}
	for _, w := range co.workers {
		st.Workers = append(st.Workers, api.WorkerStatus{
			ID:         w.id,
			Name:       w.name,
			Leases:     len(w.leases),
			IdleMillis: now.Sub(w.lastBeat).Milliseconds(),
		})
		st.Leased += len(w.leases)
	}
	sort.Slice(st.Workers, func(i, j int) bool {
		return workerNum(st.Workers[i].ID) < workerNum(st.Workers[j].ID)
	})
	return st
}

func workerNum(id string) int {
	n, _ := strconv.Atoi(strings.TrimPrefix(id, "w"))
	return n
}

// Close drains the coordinator: no new cells are accepted or leased, every
// task fails its waiters with ErrDraining, and lease responses tell
// workers to exit. Leases still outstanding are simply forgotten — a
// completion that arrives after Close gets CompleteUnknown. Idempotent.
func (co *Coordinator) Close() {
	co.mu.Lock()
	if co.draining {
		co.mu.Unlock()
		<-co.janitorDone
		return
	}
	co.draining = true
	for _, t := range co.tasks {
		co.finishLocked(t, nil, fmt.Errorf("cell %q: %w", t.lease.Key, ErrDraining))
	}
	co.mu.Unlock()
	close(co.janitorStop)
	<-co.janitorDone
}
