// Package campaign orchestrates measurement campaigns: it fans the
// paper's independent measurement cells (OS personality × stress class ×
// variant × replica) out across a bounded worker pool while preserving
// byte-for-byte determinism, and keeps multi-hour campaigns alive through
// partial failure, cancellation, and process death.
//
// The determinism contract is the point of the package. Every Cell carries
// a stable string key, and the cell's seed is derived from the campaign's
// base seed by hashing that key through SplitMix64 (sim.DeriveSeed) — never
// from a counter, submission index, or worker id. A cell's result therefore
// depends only on (base seed, key, config), so a campaign run with one
// worker and a campaign run with sixteen produce identical results, and so
// do two campaigns that submit the same cells in different orders. The
// paper's replication methodology (hours of collection per class, §3.1)
// then parallelizes freely: replicas of one cell are just sibling cells
// keyed "<cell>/0", "<cell>/1", ... and are pooled in replica order.
//
// The fault-tolerance contract builds on the same property. A panicking
// cell is recovered and published as a failure (key, error, stack) instead
// of deadlocking collection; a cancelled campaign (Options.Context) stops
// dispatching queued cells, drains the running ones, and publishes the
// rest as cancelled; and with Options.Store each finished cell is
// checkpointed on disk under a content fingerprint, so re-submitting the
// same campaign against the same store replays completed cells and
// re-runs only the missing ones — producing artifacts byte-identical to
// an uninterrupted run, because each cell's result never depended on
// which process computed it.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"wdmlat/internal/campaign/store"
	"wdmlat/internal/core"
	"wdmlat/internal/metrics"
	"wdmlat/internal/ospersona"
	"wdmlat/internal/sim"
	"wdmlat/internal/stats"
	"wdmlat/internal/workload"
)

// Metric names the runner publishes on Options.Metrics. Counters count
// cells by outcome and checkpoint-store dispositions; the gauges track the
// pool's instantaneous load (with high-watermarks); the histogram is the
// distribution of per-cell execution wall time — the runner's own "full
// distribution on a loaded system", in the paper's sense.
const (
	MetricCellsStarted      = "campaign_cells_started"      // cells dispatched to a worker
	MetricCellsCompleted    = "campaign_cells_completed"    // successful results published (incl. checkpoint restores)
	MetricCellsFailed       = "campaign_cells_failed"       // cells published with an execution error
	MetricCellsCancelled    = "campaign_cells_cancelled"    // cells dropped by cancellation before dispatch
	MetricCellPanics        = "campaign_cell_panics"        // failed cells whose error was a recovered panic
	MetricCheckpointHits    = "campaign_checkpoint_hits"    // submitted cells restored from the store
	MetricCheckpointMisses  = "campaign_checkpoint_misses"  // submitted cells absent from the store
	MetricCheckpointCorrupt = "campaign_checkpoint_corrupt" // submitted cells whose stored entry was unreadable
	MetricWorkersBusy       = "campaign_workers_busy"       // gauge: workers executing a cell right now
	MetricQueueDepth        = "campaign_queue_depth"        // gauge: cells submitted but not yet dispatched
	MetricCellWallTime      = "campaign_cell_wall_time"     // histogram: per-cell execution wall time
)

// ErrCancelled marks cells that were never dispatched because the
// campaign's context was cancelled. Test with errors.Is on the error
// returned by Result/Merged/Wait.
var ErrCancelled = errors.New("cell cancelled")

// PanicError is the failure recorded for a cell whose execution panicked.
// The campaign continues past it; collecting the cell reports this error
// instead of deadlocking.
type PanicError struct {
	Key   string // the failed cell
	Value any    // the recovered panic value
	Stack []byte // the panicking goroutine's stack
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("panic: %v", e.Value)
}

// Failure is one failed cell: its key and what went wrong (a *PanicError
// for panics, an ErrCancelled-wrapped error for cancelled cells).
type Failure struct {
	Key string
	Err error
}

// Cell is one independent measurement: a run configuration plus the stable
// identity its seed is derived from. Key is conventionally
// "os/workload/variant/replica" (see MatrixKey/ReplicaKey) but any
// campaign-unique string works. Config.Seed is ignored — the runner
// overwrites it with sim.DeriveSeed(base seed, Key).
type Cell struct {
	Key    string
	Config core.RunConfig
}

// Options configures a Runner.
type Options struct {
	// BaseSeed is the campaign seed every per-cell seed is derived from
	// (default 1).
	BaseSeed uint64
	// Jobs bounds the number of concurrently executing cells; <= 0 means
	// runtime.GOMAXPROCS(0).
	Jobs int
	// OnCellDone, if non-nil, is invoked as each cell's outcome is
	// published — after the result (or failure) is visible to Result, and
	// outside the runner lock, so the callback may itself call Result or
	// read completion counts — and before Wait can return. It fires for
	// successful, failed, and checkpoint-restored cells (not for cells
	// cancelled before dispatch), from worker goroutines: it must be safe
	// for concurrent use, must not block for long, and must not call Wait.
	OnCellDone func(key string)
	// Context, if non-nil, cancels the campaign: queued cells stop being
	// dispatched and are published as failed with ErrCancelled, while
	// cells already executing drain to completion (and checkpoint, if a
	// Store is attached). Collection then returns errors for the
	// cancelled cells instead of blocking forever.
	Context context.Context
	// Store, if non-nil, checkpoints every successfully finished cell and
	// lets Submit satisfy cells from prior runs: a submitted cell whose
	// fingerprint (base seed, key, canonical config, codec version) is
	// already stored is published immediately from disk and never
	// dispatched.
	Store *store.Store
	// ExecuteCell overrides the cell executor; nil means core.Run. It
	// receives the cell's key alongside its final config (per-cell seed
	// already derived), and may fail with an error — the seam a
	// distributed coordinator needs, where "executing" a cell means
	// leasing it to a remote worker by its content fingerprint and
	// execution can fail for reasons that are not panics (coordinator
	// drain, campaign cancellation). Tests use it to inject panics,
	// cancellation windows, and cheap fake cells. An error is published as
	// that cell's failure exactly like a recovered panic; it never takes
	// the campaign down. The result must be a function of (key, config)
	// only, never of which worker ran it or when, or the determinism
	// contract is void.
	ExecuteCell func(key string, cfg core.RunConfig) (*core.Result, error)
	// Metrics, if non-nil, receives the runner's operational telemetry
	// (the Metric* instruments above). Telemetry is strictly out-of-band:
	// it is never read by the runner or the simulation, so results are
	// byte-identical with it attached or not — a property the test suite
	// enforces. Nil disables collection at zero cost.
	Metrics *metrics.Registry
}

// runnerMetrics holds the runner's instrument handles, pre-resolved once so
// the hot paths never take the registry lock. With a nil registry every
// handle is nil and every update is a nil-safe no-op.
type runnerMetrics struct {
	started, completed, failed, cancelled, panics *metrics.Counter
	ckptHit, ckptMiss, ckptCorrupt                *metrics.Counter
	adaptive, converged, convFailed               *metrics.Counter
	busy, depth                                   *metrics.Gauge
	wall                                          *metrics.Histogram
}

func newRunnerMetrics(reg *metrics.Registry) runnerMetrics {
	return runnerMetrics{
		started:     reg.Counter(MetricCellsStarted),
		completed:   reg.Counter(MetricCellsCompleted),
		failed:      reg.Counter(MetricCellsFailed),
		cancelled:   reg.Counter(MetricCellsCancelled),
		panics:      reg.Counter(MetricCellPanics),
		ckptHit:     reg.Counter(MetricCheckpointHits),
		ckptMiss:    reg.Counter(MetricCheckpointMisses),
		ckptCorrupt: reg.Counter(MetricCheckpointCorrupt),
		adaptive:    reg.Counter(MetricReplicasAdaptive),
		converged:   reg.Counter(MetricCellsConverged),
		convFailed:  reg.Counter(MetricConvergenceFailures),
		busy:        reg.Gauge(MetricWorkersBusy),
		depth:       reg.Gauge(MetricQueueDepth),
		wall:        reg.Histogram(MetricCellWallTime),
	}
}

// Runner executes submitted cells on a bounded worker pool. Submit all
// cells up front, then collect with Result/Merged — collection blocks only
// until the requested cell (not the whole campaign) has finished, so
// artifacts can be emitted as their inputs complete.
type Runner struct {
	opts Options
	met  runnerMetrics

	mu        sync.Mutex
	cond      *sync.Cond
	queue     []*pending          // FIFO of not-yet-started cells
	cells     map[string]*pending // every submitted cell, by key
	live      int                 // worker goroutines currently running
	open      int                 // dispatched cells not yet finished
	done      int                 // cells published (any outcome)
	total     int                 // cells submitted
	storeErrs []error             // checkpoint I/O problems (non-fatal per cell)
}

type pending struct {
	cell Cell
	fp   string // checkpoint fingerprint ("" when no store attached)
	done bool
	res  *core.Result
	err  error
}

// New returns a Runner with no cells submitted.
func New(opts Options) *Runner {
	if opts.BaseSeed == 0 {
		opts.BaseSeed = 1
	}
	if opts.Jobs <= 0 {
		opts.Jobs = runtime.GOMAXPROCS(0)
	}
	r := &Runner{opts: opts, met: newRunnerMetrics(opts.Metrics), cells: map[string]*pending{}}
	r.cond = sync.NewCond(&r.mu)
	if ctx := opts.Context; ctx != nil {
		// Cancel queued cells promptly, not only when a worker next looks
		// at the queue — a campaign whose workers are deep in multi-hour
		// cells should release waiting collectors immediately.
		go func() {
			<-ctx.Done()
			r.mu.Lock()
			r.cancelQueuedLocked()
			r.mu.Unlock()
		}()
	}
	return r
}

// BaseSeed returns the campaign's base seed.
func (r *Runner) BaseSeed() uint64 { return r.opts.BaseSeed }

// Jobs returns the campaign's worker-pool width.
func (r *Runner) Jobs() int { return r.opts.Jobs }

// Progress returns the number of cells published so far (any outcome —
// success, checkpoint restore, failure or cancellation) and the total
// submitted. Safe to call concurrently; progress reporters poll it.
func (r *Runner) Progress() (done, total int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.done, r.total
}

// cancelErr builds the error published on cells the cancellation dropped.
func (r *Runner) cancelErr() error {
	cause := context.Cause(r.opts.Context)
	if cause == nil {
		cause = context.Canceled
	}
	return fmt.Errorf("%w: %v", ErrCancelled, cause)
}

// cancelled reports whether the campaign context is cancelled.
func (r *Runner) cancelled() bool {
	return r.opts.Context != nil && r.opts.Context.Err() != nil
}

// cancelQueuedLocked publishes every still-queued cell as cancelled.
// Running cells are left alone: they drain and publish normally.
func (r *Runner) cancelQueuedLocked() {
	if len(r.queue) == 0 {
		return
	}
	err := r.cancelErr()
	for _, p := range r.queue {
		p.err = err
		p.done = true
		r.open--
		r.done++
	}
	r.met.cancelled.Add(uint64(len(r.queue)))
	r.met.depth.Add(-int64(len(r.queue)))
	r.queue = nil
	r.cond.Broadcast()
}

// Submit enqueues cells for execution, deriving each cell's seed from the
// campaign base seed and the cell key. It never blocks on simulation work.
// Submitting an empty or duplicate key panics: keys are the determinism
// contract, and a collision would silently correlate two cells. With a
// Store attached, cells already checkpointed are published immediately
// instead of dispatched; with a cancelled Context, new cells are published
// as cancelled.
func (r *Runner) Submit(cells ...Cell) {
	var restored []string // checkpoint hits, for OnCellDone outside the lock
	r.mu.Lock()
	for _, c := range cells {
		if c.Key == "" {
			r.mu.Unlock()
			panic("campaign: cell with empty key")
		}
		if _, dup := r.cells[c.Key]; dup {
			r.mu.Unlock()
			panic(fmt.Sprintf("campaign: duplicate cell key %q", c.Key))
		}
		c.Config.Seed = sim.DeriveSeed(r.opts.BaseSeed, c.Key)
		p := &pending{cell: c}
		r.cells[c.Key] = p
		r.total++
		if st := r.opts.Store; st != nil {
			p.fp = store.Fingerprint(r.opts.BaseSeed, c.Key, c.Config)
			res, err := st.Load(p.fp)
			switch {
			case err != nil:
				// Unreadable or corrupt checkpoint: re-run the cell (the
				// safe direction) and surface the problem through Wait.
				r.storeErrs = append(r.storeErrs, fmt.Errorf("cell %q: %w", c.Key, err))
				r.met.ckptCorrupt.Inc()
			case res != nil:
				r.met.ckptHit.Inc()
			default:
				r.met.ckptMiss.Inc()
			}
			if res != nil {
				p.res, p.done = res, true
				r.done++
				r.met.completed.Inc()
				restored = append(restored, c.Key)
				continue
			}
		}
		if r.cancelled() {
			p.err = r.cancelErr()
			p.done = true
			r.done++
			r.met.cancelled.Inc()
			continue
		}
		r.queue = append(r.queue, p)
		r.open++
		r.met.depth.Inc()
		if r.live < r.opts.Jobs {
			r.live++
			go r.worker()
		}
	}
	if len(restored) > 0 {
		r.cond.Broadcast()
	}
	r.mu.Unlock()
	if cb := r.opts.OnCellDone; cb != nil {
		for _, key := range restored {
			cb(key)
		}
	}
}

// worker drains the queue and exits when it is empty; Submit spawns fresh
// workers as needed, so a drained pool restarts transparently.
func (r *Runner) worker() {
	r.mu.Lock()
	for len(r.queue) > 0 {
		if r.cancelled() {
			r.cancelQueuedLocked()
			break
		}
		p := r.queue[0]
		r.queue = r.queue[1:]
		r.mu.Unlock()
		r.met.depth.Dec()
		r.met.started.Inc()
		r.met.busy.Inc()

		begin := time.Now()
		res, err := r.runCell(p.cell)
		r.met.wall.Observe(time.Since(begin))
		r.met.busy.Dec()
		if err == nil {
			r.met.completed.Inc()
		} else {
			r.met.failed.Inc()
			var pe *PanicError
			if errors.As(err, &pe) {
				r.met.panics.Inc()
			}
		}
		if err == nil && r.opts.Store != nil {
			if serr := r.opts.Store.Save(p.fp, res); serr != nil {
				r.mu.Lock()
				r.storeErrs = append(r.storeErrs, fmt.Errorf("cell %q: %w", p.cell.Key, serr))
				r.mu.Unlock()
			}
		}

		r.mu.Lock()
		p.res, p.err = res, err
		p.done = true
		r.done++
		r.cond.Broadcast()
		// Invoke the callback only after the outcome is published, and
		// outside the lock: a callback that calls Result on its own key,
		// or reads completed counts, must observe this cell as done. The
		// cell stays open until the callback returns, so every callback
		// has fired by the time Wait returns.
		if cb := r.opts.OnCellDone; cb != nil {
			r.mu.Unlock()
			cb(p.cell.Key)
			r.mu.Lock()
		}
		r.open--
		r.cond.Broadcast()
	}
	r.live--
	r.mu.Unlock()
}

// runCell executes one cell, converting a panic inside the simulation into
// a recorded failure so one bad cell cannot take the campaign down.
func (r *Runner) runCell(c Cell) (res *core.Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			res = nil
			err = &PanicError{Key: c.Key, Value: v, Stack: debug.Stack()}
		}
	}()
	if r.opts.ExecuteCell != nil {
		return r.opts.ExecuteCell(c.Key, c.Config)
	}
	return core.Run(c.Config), nil
}

// Result blocks until the cell with the given key has finished and returns
// its result, or the error it failed with (a *PanicError for panics, an
// ErrCancelled-wrapped error for cells dropped by cancellation). It panics
// on an unknown key (the cell was never submitted, so waiting would
// deadlock).
func (r *Runner) Result(key string) (*core.Result, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.cells[key]
	if !ok {
		panic(fmt.Sprintf("campaign: result requested for unsubmitted cell %q", key))
	}
	for !p.done {
		r.cond.Wait()
	}
	if p.err != nil {
		return nil, fmt.Errorf("campaign: cell %q: %w", key, p.err)
	}
	return p.res, nil
}

// Merged collects the runs replica cells of key (submitted via Replicas)
// and pools them in replica-index order — a fixed order, so the merged
// histograms, counters and episode lists are independent of which worker
// finished first. Pooling accumulates into a clone of replica 0's stored
// result, never into the stored result itself: collecting the same key
// twice therefore returns two identical, independent results instead of
// double-merging the campaign's copy. Any failed replica fails the
// collection with that cell's error.
func (r *Runner) Merged(key string, runs int) (*core.Result, error) {
	if runs < 1 {
		runs = 1
	}
	first, err := r.Result(ReplicaKey(key, 0))
	if err != nil {
		return nil, err
	}
	merged := first.Clone()
	for i := 1; i < runs; i++ {
		next, err := r.Result(ReplicaKey(key, i))
		if err != nil {
			return nil, err
		}
		merged.Merge(next)
	}
	return merged, nil
}

// Wait blocks until every submitted cell has finished (or been published
// as cancelled) and returns the campaign's aggregate error: one entry per
// failed cell plus any checkpoint-store I/O problems, nil if everything
// succeeded. Running cells always drain before Wait returns, so with a
// Store attached their checkpoints are flushed even on cancellation.
func (r *Runner) Wait() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.open > 0 {
		r.cond.Wait()
	}
	var errs []error
	for _, f := range r.failedLocked() {
		errs = append(errs, fmt.Errorf("cell %q: %w", f.Key, f.Err))
	}
	errs = append(errs, r.storeErrs...)
	return errors.Join(errs...)
}

// Failed returns the failures among cells that have finished so far,
// sorted by key. After Wait it is the campaign's complete failure list.
func (r *Runner) Failed() []Failure {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.failedLocked()
}

func (r *Runner) failedLocked() []Failure {
	var out []Failure
	for key, p := range r.cells {
		if p.done && p.err != nil {
			out = append(out, Failure{Key: key, Err: p.err})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Run is the one-shot form: execute all cells on a fresh pool and return
// results in cell order, or the first failed cell's error.
func Run(cells []Cell, opts Options) ([]*core.Result, error) {
	r := New(opts)
	r.Submit(cells...)
	out := make([]*core.Result, len(cells))
	for i, c := range cells {
		res, err := r.Result(c.Key)
		if err != nil {
			return nil, err
		}
		out[i] = res
	}
	return out, nil
}

// Stream runs a campaign on a fresh pool and writes its result stream to w
// in cell order: the bytes latserved serves for the same spec. With prec
// nil every cell runs once and its core.EncodeResult document is written
// as soon as it is next in order. With prec set every cell is a logical
// cell: all of them run their MergedAdaptive loops concurrently, and each
// writes its pooled document. opts.OnCellDone fires once per cell in both
// modes. On the first failure in cell order Stream drains the pool, so
// running cells still checkpoint, and returns that cell's error; otherwise
// it returns Wait's.
func Stream(w io.Writer, cells []Cell, prec *stats.Precision, opts Options) error {
	var r *Runner
	result := func(i int) (*core.Result, error) { return r.Result(cells[i].Key) }
	if prec == nil {
		r = New(opts)
		r.Submit(cells...)
	} else {
		// The runner would fire the callback per replica;
		// mergeAdaptiveAll fires it per logical cell instead.
		done := opts.OnCellDone
		opts.OnCellDone = nil
		r = New(opts)
		outs := r.mergeAdaptiveAll(cells, *prec, done)
		result = func(i int) (*core.Result, error) { return outs[i].res, outs[i].err }
	}
	for i, c := range cells {
		res, err := result(i)
		if err == nil {
			if err = core.EncodeResult(w, res); err != nil {
				err = fmt.Errorf("campaign: encoding cell %q: %w", c.Key, err)
			}
		}
		if err != nil {
			_ = r.Wait() // the first error is the campaign's; Wait only drains
			return err
		}
	}
	return r.Wait()
}

// Key joins key components with "/", the conventional separator.
func Key(parts ...string) string { return strings.Join(parts, "/") }

// ReplicaKey returns the key of replica i of a cell.
func ReplicaKey(key string, i int) string { return key + "/" + strconv.Itoa(i) }

// Replicas expands one logical cell into runs replica cells keyed
// "<key>/0" ... "<key>/<runs-1>", all sharing cfg. Collect them pooled
// with Runner.Merged(key, runs).
func Replicas(key string, cfg core.RunConfig, runs int) []Cell {
	if runs < 1 {
		runs = 1
	}
	cells := make([]Cell, runs)
	for i := range cells {
		cells[i] = Cell{Key: ReplicaKey(key, i), Config: cfg}
	}
	return cells
}

// OSSlug returns the short stable key token for an OS personality (the
// same tokens cli.ParseOS accepts).
func OSSlug(o ospersona.OS) string {
	switch o {
	case ospersona.NT4:
		return "nt4"
	case ospersona.Win98:
		return "win98"
	case ospersona.Win2000Beta:
		return "win2000"
	default:
		return "os" + strconv.Itoa(int(o))
	}
}

// ClassSlug returns the short stable key token for a workload class.
func ClassSlug(c workload.Class) string {
	switch c {
	case workload.Business:
		return "business"
	case workload.Workstation:
		return "workstation"
	case workload.Games:
		return "games"
	case workload.Web:
		return "web"
	default:
		return "class" + strconv.Itoa(int(c))
	}
}

// MatrixKey returns the canonical logical-cell key for one OS × workload
// cell of a named campaign variant ("default", "scanner", ...).
func MatrixKey(o ospersona.OS, c workload.Class, variant string) string {
	return Key(OSSlug(o), ClassSlug(c), variant)
}

// MatrixCells builds the replica cells of a full OS × workload matrix. The
// base config supplies everything but OS, Workload and Seed, which are set
// per cell. Collect with Runner.Merged(MatrixKey(...), runs).
func MatrixCells(oses []ospersona.OS, classes []workload.Class, variant string, base core.RunConfig, runs int) []Cell {
	var cells []Cell
	for _, c := range MatrixLogicalCells(oses, classes, variant, base) {
		cells = append(cells, Replicas(c.Key, c.Config, runs)...)
	}
	return cells
}

// MatrixLogicalCells returns the logical cells of an OS × workload matrix,
// one per OS × workload keyed by MatrixKey, in MatrixCells order — the
// cells of an adaptive campaign, whose replicas the precision policy adds.
func MatrixLogicalCells(oses []ospersona.OS, classes []workload.Class, variant string, base core.RunConfig) []Cell {
	cells := make([]Cell, 0, len(oses)*len(classes))
	for _, o := range oses {
		for _, c := range classes {
			cfg := base
			cfg.OS = o
			cfg.Workload = c
			cells = append(cells, Cell{Key: MatrixKey(o, c, variant), Config: cfg})
		}
	}
	return cells
}

// RunMatrix submits a full OS × workload matrix on r and collects the
// pooled per-cell results, indexed by OS then class. The first failed or
// cancelled cell aborts collection with its error.
func (r *Runner) RunMatrix(oses []ospersona.OS, classes []workload.Class, variant string, base core.RunConfig, runs int) (map[ospersona.OS]map[workload.Class]*core.Result, error) {
	r.Submit(MatrixCells(oses, classes, variant, base, runs)...)
	out := make(map[ospersona.OS]map[workload.Class]*core.Result, len(oses))
	for _, o := range oses {
		out[o] = make(map[workload.Class]*core.Result, len(classes))
		for _, c := range classes {
			res, err := r.Merged(MatrixKey(o, c, variant), runs)
			if err != nil {
				return nil, err
			}
			out[o][c] = res
		}
	}
	return out, nil
}
