package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"wdmlat/internal/api"
	"wdmlat/internal/campaign/store"
	"wdmlat/internal/client"
	"wdmlat/internal/core"
	telemetry "wdmlat/internal/metrics"
	"wdmlat/internal/server"
)

// fleetWorkers is the fleet size of fleet-shard: one worker per vCPU of
// the 2-vCPU machine the baseline was recorded on.
const fleetWorkers = 2

// svcConfig is what differs between the two service workloads.
type svcConfig struct {
	fleet   bool
	tr      *tracer
	execute func(core.RunConfig) *core.Result // nil: core.Run; runs in the server, or in each fleet worker
}

// svc is one in-process latserved, wired the way latserved wires itself
// with its default flags: a store and a journal in a cache directory, a
// metrics registry, 2 simulation workers per campaign, a 16-campaign
// queue, one campaign at a time — plus, in fleet mode, latworkd-style
// workers, each with its own checkpoint store, and the two lease settings
// below.
type svc struct {
	dir     string
	reg     *telemetry.Registry
	journal *server.Journal
	srv     *server.Server
	httpSrv *http.Server
	url     string
	served  chan error

	stopWorkers context.CancelFunc
	workers     sync.WaitGroup
	workerErrs  chan error
}

// startSvc builds a service in dir and returns once it answers /healthz
// (and, in fleet mode, once /v1/fleet lists every worker). The returned
// duration is that set-up time.
func startSvc(ctx context.Context, dir string, cfg svcConfig) (*svc, time.Duration, error) {
	begin := time.Now()
	s := &svc{dir: dir, reg: telemetry.NewRegistry(), served: make(chan error, 1), workerErrs: make(chan error, fleetWorkers)}
	st, err := store.Open(filepath.Join(dir, "cache"))
	if err != nil {
		return nil, 0, err
	}
	st.Instrument(s.reg)
	s.journal, err = server.OpenJournal(filepath.Join(dir, "cache", "latserved.journal"))
	if err != nil {
		return nil, 0, err
	}
	opts := server.Options{Jobs: simJobs, QueueLimit: 16, Concurrency: 1, Store: st, Metrics: s.reg, Journal: s.journal}
	if cfg.fleet {
		// Two outstanding leases per worker keep a cell queued whenever a
		// worker asks for its next one, and a 20 ms poll hint bounds the
		// idle wait at a campaign's start. With latserved's defaults (as
		// many leases as workers, a 500 ms poll) a worker that asks before
		// the runner has queued the next cell sleeps half a second: a race
		// lost a random number of times per campaign, which then sets its
		// wall time.
		opts.Jobs = 2 * fleetWorkers
		opts.Fleet = &server.CoordinatorOptions{Poll: 20 * time.Millisecond}
	} else {
		opts.Execute = cfg.execute
	}
	s.srv = server.New(opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.srv.Close()
		_ = s.journal.Close()
		return nil, 0, err
	}
	s.url = "http://" + ln.Addr().String()
	s.httpSrv = &http.Server{Handler: traceHandler(cfg.tr, s.srv.Handler())}
	go func() { s.served <- s.httpSrv.Serve(ln) }()

	probe := &http.Client{Timeout: time.Second}
	if err := waitFor(ctx, func() bool {
		resp, err := probe.Get(s.url + "/healthz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	}); err != nil {
		s.close()
		return nil, 0, fmt.Errorf("waiting for /healthz: %w", err)
	}
	if cfg.fleet {
		if err := s.startWorkers(ctx, cfg.execute); err != nil {
			s.close()
			return nil, 0, err
		}
	}
	return s, time.Since(begin), nil
}

func (s *svc) startWorkers(ctx context.Context, execute func(core.RunConfig) *core.Result) error {
	wctx, cancel := context.WithCancel(context.Background())
	s.stopWorkers = cancel
	for i := 0; i < fleetWorkers; i++ {
		wst, err := store.Open(filepath.Join(s.dir, fmt.Sprintf("worker-%d", i)))
		if err != nil {
			return err
		}
		c := client.New(s.url, client.Options{HTTP: &http.Client{Transport: &http.Transport{}}})
		opts := client.WorkerOptions{Name: fmt.Sprintf("w%d", i), Cells: 1, Store: wst, Execute: execute}
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			if err := c.RunWorker(wctx, opts); err != nil && !errors.Is(err, context.Canceled) {
				s.workerErrs <- err
			}
		}()
	}
	c := client.New(s.url, client.Options{})
	return waitFor(ctx, func() bool {
		st, err := c.Fleet(ctx)
		return err == nil && len(st.Workers) == fleetWorkers
	})
}

// close stops the workers, drains the server, and closes the listener and
// journal; it returns the first error a worker or the listener reported.
func (s *svc) close() error {
	var errs []error
	if s.stopWorkers != nil {
		s.stopWorkers()
		s.workers.Wait()
		close(s.workerErrs)
		for err := range s.workerErrs {
			errs = append(errs, fmt.Errorf("fleet worker: %w", err))
		}
	}
	s.srv.Close()
	if err := s.httpSrv.Close(); err != nil {
		errs = append(errs, err)
	}
	if err := <-s.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		errs = append(errs, err)
	}
	if err := s.journal.Close(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// startSvcs starts n services, each in a fresh directory under tmp, and
// returns their set-up times and the last one, still running.
func startSvcs(ctx context.Context, tmp string, cfg svcConfig, n int) (*svc, []float64, error) {
	var setups []float64
	for i := 0; ; i++ {
		s, d, err := startSvc(ctx, filepath.Join(tmp, fmt.Sprintf("svc-%d", i)), cfg)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, d.Seconds())
		if i == n-1 {
			return s, setups, nil
		}
		if err := s.close(); err != nil {
			return nil, nil, err
		}
	}
}

// setupTimes measures set-up setupRepeats times, half before the
// measurement (the last of those serves it) and half after, so a burst of
// load from outside the benchmark skews only some of them. It returns the
// running service and a function that takes the second half.
func setupTimes(ctx context.Context, tmp string, cfg svcConfig) (*svc, func() ([]float64, error), error) {
	s, before, err := startSvcs(ctx, filepath.Join(tmp, "before"), cfg, setupRepeats/2+1)
	if err != nil {
		return nil, nil, err
	}
	after := func() ([]float64, error) {
		last, more, err := startSvcs(ctx, filepath.Join(tmp, "after"), cfg, setupRepeats-len(before))
		if err != nil {
			return nil, err
		}
		return append(before, more...), last.close()
	}
	return s, after, nil
}

// layers are the per-layer metrics both service workloads take from a
// traced measurement window.
func (s *svc) layers(spans []span, delta serviceCounters, gen *generator, queueWait []time.Duration) metrics {
	m := spanMetrics(spans)
	m.add(metrics{
		"server.submit_ms":      median(durations(spans, "server.submit")),
		"server.result_ms":      median(durations(spans, "server.result")),
		"server.queue_wait_ms":  median(msList(queueWait)),
		"server.exec_ms":        ms(s.reg.Histogram(server.MetricCampaignWall).Quantile(0.5)),
		"server.deduped":        float64(delta.deduped),
		"server.cells_executed": float64(delta.executed),
		"store.hit_ratio":       float64(delta.reads) / float64(max(delta.reads+delta.misses, 1)),
		"client.retries":        float64(gen.retries.Load()),
	})
	return m
}

// runCampaign submits spec, follows it to a terminal state, and fetches
// its result stream, recording client spans under root.
func runCampaign(ctx context.Context, c *client.Client, tr *tracer, root int, spec *api.CampaignSpec, onEvent func(api.Event)) (string, []byte, error) {
	o := tr.start("client.submit", "", root)
	st, err := c.Submit(ctx, spec)
	o.endReq(st.ID)
	if err != nil {
		return "", nil, err
	}
	if !api.TerminalState(st.State) {
		o = tr.start("client.watch", st.ID, root)
		st, err = c.Watch(ctx, st.ID, onEvent)
		o.end()
		if err != nil {
			return st.ID, nil, err
		}
	}
	if st.State != api.StateDone {
		return st.ID, nil, fmt.Errorf("campaign %s ended %s: %s", st.ID, st.State, st.Error)
	}
	o = tr.start("client.result", st.ID, root)
	data, err := c.Result(ctx, st.ID)
	o.end()
	return st.ID, data, err
}

func waitFor(ctx context.Context, ok func() bool) error {
	for !ok() {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(100 * time.Microsecond):
		}
	}
	return nil
}

// cpuTime is this process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
