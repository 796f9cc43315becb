// Package server is the latency-campaign service: a long-lived HTTP front
// end over the internal/campaign runner that turns one-shot measurement
// runs into submitted, queryable, cached jobs.
//
// The load-bearing guarantee is byte identity: the result stream served
// for a campaign — one core.EncodeResult document per cell, in submission
// order, as campaign.Stream writes it — is exactly what the same campaign
// produces locally, at any worker count, whether the cells were executed
// or replayed from the cache. That falls out of the campaign determinism contract (per-cell
// seeds derived from the campaign seed and cell key, never from
// scheduling) plus the exact result codec, and the test suite pins it.
//
// Campaigns are content-addressed (api.CampaignID over the cells' store
// fingerprints), which collapses three mechanisms into one:
//
//   - in-flight deduplication: a second submission of a running campaign
//     joins the existing job instead of executing again;
//   - a completed-result cache: re-submitting a finished campaign returns
//     the retained job immediately;
//   - a durable cell cache: with a store attached, individual cells are
//     replayed from disk across server restarts — and shared with local
//     runs pointed at the same checkpoint directory.
//
// Admission is bounded: campaigns wait in a fixed-capacity queue for one
// of a fixed number of executor slots, and a submission that finds the
// queue full is rejected immediately with 429 and a Retry-After hint —
// the accept loop never blocks on simulation work. Each job runs under
// its own context (DELETE cancels just that job), and Close cancels all
// of them, draining running cells through the campaign runner's
// checkpoint path before returning.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"wdmlat/internal/api"
	"wdmlat/internal/campaign"
	"wdmlat/internal/campaign/store"
	"wdmlat/internal/core"
	"wdmlat/internal/metrics"
)

// Metric names the server publishes on Options.Metrics, alongside the
// campaign runner's and store's own instruments (shared registry, served
// verbatim by /metrics).
const (
	MetricSubmitted    = "server_campaigns_submitted" // new jobs admitted to the queue
	MetricResumed      = "server_campaigns_resumed"   // journaled jobs re-admitted after a restart
	MetricDeduped      = "server_campaigns_deduped"   // submissions that joined an existing job
	MetricRejected     = "server_campaigns_rejected"  // submissions bounced with 429 (queue full)
	MetricCompleted    = "server_campaigns_completed" // jobs finished in state done
	MetricFailed       = "server_campaigns_failed"    // jobs finished in state failed
	MetricCancelled    = "server_campaigns_cancelled" // jobs finished in state cancelled
	MetricRunning      = "server_campaigns_running"   // gauge: jobs executing right now
	MetricQueueDepth   = "server_queue_depth"         // gauge: admitted jobs waiting for an executor
	MetricCellsExec    = "server_cells_executed"      // cells actually simulated (cache misses)
	MetricCampaignWall = "server_campaign_wall_time"  // histogram: per-job wall time
)

// Options configures a Server.
type Options struct {
	// Jobs is the per-campaign worker-pool width (campaign.Options.Jobs);
	// <= 0 means GOMAXPROCS.
	Jobs int
	// QueueLimit bounds admitted-but-not-running jobs; a submission that
	// finds the queue full gets 429. Default 16.
	QueueLimit int
	// Concurrency is how many campaigns execute at once. Default 1: one
	// campaign already saturates Jobs workers, and serial execution keeps
	// the measurement host's load — the thing the paper says perturbs
	// latency — predictable.
	Concurrency int
	// MaxCells bounds the cells of one campaign (admission-time 400, so a
	// huge spec cannot wedge an executor slot for hours). Default 4096.
	MaxCells int
	// RetryAfter is the hint returned with 429 responses. Default 2s.
	RetryAfter time.Duration
	// Store, if non-nil, is the durable content-addressed cell cache
	// (campaign.Options.Store): executed cells are checkpointed under
	// their fingerprints and replayed on later submissions, including
	// across server restarts.
	Store *store.Store
	// Metrics receives the server's, runner's and store's telemetry; nil
	// disables collection. /metrics serves this registry's snapshot.
	Metrics *metrics.Registry
	// Execute overrides the cell executor (core.Run) — tests inject
	// blocking or instant fakes. Must stay a pure function of its config.
	// Ignored in fleet mode, where cells execute on remote workers.
	Execute func(core.RunConfig) *core.Result
	// Fleet, if non-nil, runs the server as a coordinator: campaigns'
	// cells are leased to registered workers (POST /v1/workers ...)
	// instead of executed in-process, sharded by checkpoint-store
	// fingerprint and merged in submission order — byte-identical to a
	// local run at any fleet size, including across worker crashes.
	Fleet *CoordinatorOptions
	// Journal, if non-nil, makes admitted campaigns durable: every
	// admission and terminal state is appended, and New re-admits the
	// journal's unfinished campaigns so a restart resumes them (cells
	// already in Store replay from disk; the rest re-execute or
	// re-dispatch) instead of failing their waiters.
	Journal *Journal
}

type serverMetrics struct {
	submitted, resumed, deduped, rejected *metrics.Counter
	completed, failed, cancelled, cellsEx *metrics.Counter
	running, depth                        *metrics.Gauge
	wall                                  *metrics.Histogram
}

// job is one content-addressed campaign. Its mutable state is guarded by
// mu; every mutation appends an event and replaces changed, so watchers
// block on a channel (selectable against the request context) instead of
// a condition variable.
type job struct {
	id   string
	spec api.CampaignSpec

	ctx    context.Context
	cancel context.CancelCauseFunc

	mu      sync.Mutex
	state   string
	done    int
	cached  bool
	errMsg  string
	result  []byte // concatenated core.EncodeResult docs, set in state done
	events  []api.Event
	changed chan struct{}
}

func (j *job) publishLocked(ev api.Event) {
	ev.Seq = len(j.events)
	ev.Done = j.done
	ev.Total = len(j.spec.Cells)
	j.events = append(j.events, ev)
	close(j.changed)
	j.changed = make(chan struct{})
}

func (j *job) setState(state string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = state
	j.publishLocked(api.Event{Type: api.EventState, State: state})
}

func (j *job) cellDone(key string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.done++
	j.publishLocked(api.Event{Type: api.EventCell, Key: key})
}

func (j *job) status() api.Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return api.Status{
		ID:     j.id,
		State:  j.state,
		Done:   j.done,
		Total:  len(j.spec.Cells),
		Cached: j.cached,
		Error:  j.errMsg,
	}
}

// Server is the campaign service. Create with New, expose Handler on an
// http.Server, and Close on shutdown.
type Server struct {
	opts Options
	met  serverMetrics
	mux  *http.ServeMux

	mu     sync.Mutex
	jobs   map[string]*job
	queue  chan *job
	closed bool

	// coord is non-nil in fleet mode: cells are dispatched to workers
	// through it rather than executed in-process.
	coord *Coordinator

	rootCtx    context.Context
	rootCancel context.CancelFunc
	executors  sync.WaitGroup
}

// New returns a Server with its executor pool started.
func New(opts Options) *Server {
	if opts.QueueLimit <= 0 {
		opts.QueueLimit = 16
	}
	if opts.Concurrency <= 0 {
		opts.Concurrency = 1
	}
	if opts.MaxCells <= 0 {
		opts.MaxCells = 4096
	}
	if opts.RetryAfter <= 0 {
		opts.RetryAfter = 2 * time.Second
	}
	reg := opts.Metrics
	opts.Journal.Instrument(reg)
	// The journal's unfinished campaigns are re-admitted below; the queue
	// is sized to hold them all on top of the normal admission window, so
	// resumption can never bounce a journaled campaign off a full queue.
	jstate := opts.Journal.State()
	s := &Server{
		opts: opts,
		met: serverMetrics{
			submitted: reg.Counter(MetricSubmitted),
			resumed:   reg.Counter(MetricResumed),
			deduped:   reg.Counter(MetricDeduped),
			rejected:  reg.Counter(MetricRejected),
			completed: reg.Counter(MetricCompleted),
			failed:    reg.Counter(MetricFailed),
			cancelled: reg.Counter(MetricCancelled),
			cellsEx:   reg.Counter(MetricCellsExec),
			running:   reg.Gauge(MetricRunning),
			depth:     reg.Gauge(MetricQueueDepth),
			wall:      reg.Histogram(MetricCampaignWall),
		},
		jobs:  map[string]*job{},
		queue: make(chan *job, opts.QueueLimit+len(jstate.Campaigns)),
	}
	s.rootCtx, s.rootCancel = context.WithCancel(context.Background())
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/campaigns", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/campaigns/{id}", s.handleStatus)
	s.mux.HandleFunc("DELETE /v1/campaigns/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/campaigns/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/campaigns/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if opts.Fleet != nil {
		co := *opts.Fleet
		if co.Metrics == nil {
			co.Metrics = opts.Metrics
		}
		s.coord = NewCoordinator(co)
		s.mux.HandleFunc("POST /v1/workers", s.handleWorkerRegister)
		s.mux.HandleFunc("POST /v1/workers/{id}/heartbeat", s.handleWorkerHeartbeat)
		s.mux.HandleFunc("POST /v1/workers/{id}/leases", s.handleWorkerLease)
		s.mux.HandleFunc("POST /v1/workers/{id}/complete", s.handleWorkerComplete)
		s.mux.HandleFunc("GET /v1/fleet", s.handleFleet)
	}
	for i := 0; i < opts.Concurrency; i++ {
		s.executors.Add(1)
		go s.executor()
	}
	s.resumeJournaled(jstate.Campaigns)
	return s
}

// resumeJournaled re-admits the campaigns a previous incarnation journaled
// but never finished, in their original admission order. A resumed job is
// indistinguishable from a fresh submission downstream: cells already in
// the checkpoint store replay from disk, the rest execute (or, in fleet
// mode, re-dispatch to workers). The journal already holds these
// campaigns' records, so nothing is re-appended here.
func (s *Server) resumeJournaled(campaigns []JournalCampaign) {
	for i := range campaigns {
		spec := campaigns[i].Spec
		id := api.CampaignID(&spec)
		if id != campaigns[i].ID {
			// The content address no longer matches the journaled one: the
			// codec (and therefore every cell fingerprint) diverged across
			// the restart, and the old campaign identity is meaningless.
			// Skip it; a re-submission computes fresh results.
			continue
		}
		s.mu.Lock()
		if _, ok := s.jobs[id]; ok {
			s.mu.Unlock()
			continue
		}
		j := &job{id: id, spec: spec, state: api.StateQueued, changed: make(chan struct{})}
		j.ctx, j.cancel = context.WithCancelCause(s.rootCtx)
		j.publishLocked(api.Event{Type: api.EventState, State: api.StateQueued})
		s.met.depth.Inc()
		select {
		case s.queue <- j:
			s.jobs[id] = j
			s.mu.Unlock()
			s.met.resumed.Inc()
		default:
			// Unreachable by construction (the queue is sized for every
			// journaled campaign), kept so a future sizing bug degrades to
			// a dropped resume instead of a deadlocked constructor.
			s.mu.Unlock()
			j.cancel(nil)
			s.met.depth.Dec()
		}
	}
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close shuts the service down gracefully: new submissions get 503, every
// job's context is cancelled — queued cells are dropped as cancelled,
// running cells drain to completion and checkpoint through the store —
// and Close returns once all executors have finished draining. Idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.executors.Wait()
		if s.coord != nil {
			s.coord.Close()
		}
		return
	}
	s.closed = true
	close(s.queue) // safe: submissions only enqueue under mu with closed==false
	s.mu.Unlock()
	s.rootCancel()
	s.executors.Wait()
	if s.coord != nil {
		// After the executors drained there are no ExecuteRemote waiters
		// left; this stops the lease janitor and tells polling workers,
		// via Draining lease responses, to exit.
		s.coord.Close()
	}
}

// executor pulls admitted jobs off the queue and runs them one at a time.
func (s *Server) executor() {
	defer s.executors.Done()
	for j := range s.queue {
		s.met.depth.Dec()
		s.runJob(j)
	}
}

// runJob executes one campaign and publishes its terminal state.
func (s *Server) runJob(j *job) {
	defer j.cancel(nil)
	if j.ctx.Err() != nil {
		s.finishJob(j, api.StateCancelled, nil, fmt.Sprintf("cancelled before start: %v", context.Cause(j.ctx)))
		return
	}
	j.setState(api.StateRunning)
	s.met.running.Inc()
	begin := time.Now()
	defer func() {
		s.met.wall.Observe(time.Since(begin))
		s.met.running.Dec()
	}()

	// One executor per job — a fleet lease, or the in-process simulator —
	// wrapped once below to count the cells actually executed, for
	// server_cells_executed and Cached.
	local := s.opts.Execute
	if local == nil {
		local = core.Run
	}
	execute := func(_ string, cfg core.RunConfig) (*core.Result, error) { return local(cfg), nil }
	if s.coord != nil {
		// Fleet mode: "executing" a cell means leasing it to a worker by
		// its content fingerprint. The campaign runner's Jobs bound now
		// caps outstanding leases per campaign instead of local CPU work.
		execute = func(key string, cfg core.RunConfig) (*core.Result, error) {
			res, err := s.coord.ExecuteRemote(j.ctx, j.spec.Seed(), key, cfg)
			if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
				// ExecuteRemote surfaces a cancelled wait as the bare ctx
				// error, but the terminal-state classification below keys
				// on ErrCancelled — without the wrap, a DELETE-cancelled
				// fleet job is published as failed.
				err = fmt.Errorf("%w: %v", campaign.ErrCancelled, err)
			}
			return res, err
		}
	}
	var executed atomic.Uint64
	cells := make([]campaign.Cell, len(j.spec.Cells))
	for i, c := range j.spec.Cells {
		cells[i] = campaign.Cell{Key: c.Key, Config: c.Config}
	}
	var buf bytes.Buffer
	err := campaign.Stream(&buf, cells, j.spec.Precision, campaign.Options{
		BaseSeed: j.spec.Seed(),
		Jobs:     s.opts.Jobs,
		Context:  j.ctx,
		Store:    s.opts.Store,
		Metrics:  s.opts.Metrics,
		ExecuteCell: func(key string, cfg core.RunConfig) (*core.Result, error) {
			s.met.cellsEx.Inc()
			executed.Add(1)
			return execute(key, cfg)
		},
		OnCellDone: j.cellDone,
	})
	switch {
	case errors.Is(err, campaign.ErrCancelled):
		s.finishJob(j, api.StateCancelled, nil, err.Error())
	case err != nil:
		// A failed cell, or — after every cell was collected — a
		// checkpoint-store I/O problem: fail loudly rather than serve a
		// result whose cache entries silently went missing.
		s.finishJob(j, api.StateFailed, nil, err.Error())
	default:
		j.mu.Lock()
		j.cached = executed.Load() == 0
		j.mu.Unlock()
		s.finishJob(j, api.StateDone, buf.Bytes(), "")
	}
}

func (s *Server) finishJob(j *job, state string, result []byte, errMsg string) {
	j.mu.Lock()
	j.result = result
	j.errMsg = errMsg
	j.mu.Unlock()
	j.setState(state)
	switch state {
	case api.StateDone:
		s.met.completed.Inc()
	case api.StateFailed:
		s.met.failed.Inc()
	case api.StateCancelled:
		s.met.cancelled.Inc()
	}
	// A job that ended because Close cancelled it has not reached its
	// outcome; its end is the restart's starting point, so the journal
	// entry stays open and the next incarnation resumes the job. Every
	// other end closes the entry: done, failed, or cancelled by a DELETE,
	// whose cause a later Close cannot overwrite. The decision reads the
	// job's own context, not the server's state now, so a Close that lands
	// after the publish above changes nothing.
	if state == api.StateDone || j.ctx.Err() == nil || errors.Is(context.Cause(j.ctx), errCancelRequested) {
		s.opts.Journal.Finished(j.id, state)
	}
}

// errCancelRequested is the cause a DELETE cancels its job with.
var errCancelRequested = errors.New("cancelled by request")

// --- HTTP handlers ---------------------------------------------------------

// maxSpecBytes bounds the submission body; a full 4096-cell matrix spec is
// well under 4 MiB.
const maxSpecBytes = 8 << 20

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, api.Error{Message: fmt.Sprintf(format, args...)})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec api.CampaignSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "decoding campaign spec: %v", err)
		return
	}
	if err := spec.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(spec.Cells) > s.opts.MaxCells {
		writeError(w, http.StatusBadRequest, "campaign has %d cells, limit %d", len(spec.Cells), s.opts.MaxCells)
		return
	}
	if spec.Precision != nil {
		// Admission bounds the worst case: every logical cell running to
		// the policy's replica cap. Compared by division, because the
		// product of the cell count and a huge max_runs wraps.
		if maxRuns := spec.Precision.Normalized().MaxRuns; maxRuns > s.opts.MaxCells/len(spec.Cells) {
			writeError(w, http.StatusBadRequest,
				"adaptive campaign could expand past %d replica cells (%d cells x max_runs %d)",
				s.opts.MaxCells, len(spec.Cells), maxRuns)
			return
		}
	}
	id := api.CampaignID(&spec)

	s.mu.Lock()
	if existing, ok := s.jobs[id]; ok {
		s.mu.Unlock()
		s.met.deduped.Inc()
		writeJSON(w, http.StatusOK, existing.status())
		return
	}
	if s.closed {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	j := &job{id: id, spec: spec, state: api.StateQueued, changed: make(chan struct{})}
	j.ctx, j.cancel = context.WithCancelCause(s.rootCtx)
	// Publish the queued event before the job is visible to an executor,
	// so the event stream always starts with it.
	j.publishLocked(api.Event{Type: api.EventState, State: api.StateQueued})
	s.met.depth.Inc() // before the enqueue, so the executor's Dec never races it negative
	select {
	case s.queue <- j:
	default:
		// Queue full: reject now, with a hint, rather than ever blocking
		// the accept loop behind simulation work.
		s.mu.Unlock()
		j.cancel(nil)
		s.met.depth.Dec()
		s.met.rejected.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.opts.RetryAfter)))
		writeError(w, http.StatusTooManyRequests, "admission queue full (%d campaigns queued)", s.opts.QueueLimit)
		return
	}
	s.jobs[id] = j
	s.mu.Unlock()
	s.met.submitted.Inc()
	// Journal the admission outside the lock (appends fsync). A crash in
	// the window between admission and append merely loses the campaign;
	// the client's retried submit re-creates it under the same content
	// address.
	s.opts.Journal.Campaign(id, &spec)
	writeJSON(w, http.StatusAccepted, j.status())
}

func retryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

func (s *Server) jobFor(w http.ResponseWriter, r *http.Request) *job {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "unknown campaign %q", r.PathValue("id"))
		return nil
	}
	return j
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j := s.jobFor(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.status())
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.jobFor(w, r)
	if j == nil {
		return
	}
	j.cancel(errCancelRequested)
	writeJSON(w, http.StatusAccepted, j.status())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.jobFor(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	state, result, errMsg := j.state, j.result, j.errMsg
	j.mu.Unlock()
	switch {
	case state == api.StateDone:
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Header().Set("Content-Length", strconv.Itoa(len(result)))
		_, _ = w.Write(result)
	case api.TerminalState(state):
		writeError(w, http.StatusGone, "campaign %s: %s", state, errMsg)
	default:
		writeError(w, http.StatusConflict, "campaign is %s; result not ready", state)
	}
}

// handleEvents streams the job's events as NDJSON from ?from= (default 0),
// live-following until a terminal state event has been sent or the client
// disconnects. Seq numbers are dense, so a dropped watcher resumes with
// from=<last seen>+1 and misses nothing.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.jobFor(w, r)
	if j == nil {
		return
	}
	from := 0
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "bad from=%q", v)
			return
		}
		from = n
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	next := from
	for {
		j.mu.Lock()
		pending := append([]api.Event(nil), j.events[min(next, len(j.events)):]...)
		changed := j.changed
		j.mu.Unlock()
		terminal := false
		for _, ev := range pending {
			if err := enc.Encode(ev); err != nil {
				return
			}
			next = ev.Seq + 1
			if ev.Type == api.EventState && api.TerminalState(ev.State) {
				terminal = true
			}
		}
		if len(pending) > 0 && flusher != nil {
			flusher.Flush()
		}
		if terminal {
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}

// --- Fleet (coordinator) handlers ------------------------------------------
//
// Thin HTTP skins over the Coordinator state machine. 410 Gone is the
// "identity lost" signal — an unknown worker id (expired and reclaimed) or
// a fingerprint with no pending or leased cell (already merged, campaign
// cancelled, or leased before a restart) — and tells the worker to
// re-register or drop the result, never to retry verbatim.

func (s *Server) handleWorkerRegister(w http.ResponseWriter, r *http.Request) {
	var req api.RegisterRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	if err := dec.Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		writeError(w, http.StatusBadRequest, "decoding registration: %v", err)
		return
	}
	resp, ok := s.coord.Register(req.Name)
	if !ok {
		// Draining: the janitor is stopped, so an admitted worker would
		// never be reclaimed. 503 is retryable — the worker's backoff
		// lands on this coordinator's next incarnation.
		writeError(w, http.StatusServiceUnavailable, "coordinator is draining; retry")
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleWorkerHeartbeat(w http.ResponseWriter, r *http.Request) {
	if !s.coord.Heartbeat(r.PathValue("id")) {
		writeError(w, http.StatusGone, "unknown worker %q: re-register", r.PathValue("id"))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleWorkerLease(w http.ResponseWriter, r *http.Request) {
	var req api.LeaseRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	if err := dec.Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		writeError(w, http.StatusBadRequest, "decoding lease request: %v", err)
		return
	}
	resp, ok := s.coord.Lease(r.PathValue("id"), req.Max)
	if !ok {
		writeError(w, http.StatusGone, "unknown worker %q: re-register", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleWorkerComplete(w http.ResponseWriter, r *http.Request) {
	var req api.CompleteRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding completion: %v", err)
		return
	}
	disp, err := s.coord.Complete(r.PathValue("id"), req)
	switch disp {
	case CompleteMerged:
		writeJSON(w, http.StatusOK, map[string]string{"status": "merged"})
	case CompleteUnknown:
		writeError(w, http.StatusGone, "%v", err)
	case CompleteRejected:
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
	}
}

func (s *Server) handleFleet(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.coord.Status())
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = s.opts.Metrics.WriteJSON(w)
}
