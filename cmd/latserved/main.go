// latserved serves measurement campaigns over HTTP: POST an OS×workload
// cell matrix to /v1/campaigns, watch its NDJSON progress stream, and
// fetch a result byte-identical to running the same campaign locally.
// Campaigns are content-addressed, so identical submissions — concurrent
// or repeated — share one execution, and with -cache the per-cell results
// persist across restarts under their checkpoint-store fingerprints (the
// same files a local `reproduce -checkpoint` run reads and writes).
// -cache also holds latserved.journal, an append-only record of admitted
// campaigns: a server killed mid-campaign re-admits its unfinished
// campaigns on the next start and resumes them — cached cells replay from
// disk, the rest re-execute or re-dispatch — instead of failing waiters.
//
// Endpoints:
//
//	POST   /v1/campaigns             submit {base_seed, cells:[{key,config}]}
//	GET    /v1/campaigns/{id}        status
//	DELETE /v1/campaigns/{id}        cancel
//	GET    /v1/campaigns/{id}/result exact core.EncodeResult stream (NDJSON)
//	GET    /v1/campaigns/{id}/events progress events (NDJSON, ?from= resume)
//	GET    /healthz                  liveness
//	GET    /metrics                  internal/metrics registry snapshot
//
// With -fleet the server becomes a coordinator: instead of simulating
// in-process it shards each campaign's cells across registered latworkd
// workers by checkpoint fingerprint, merges validated results in
// submission order (byte-identical to a local run at any fleet size), and
// re-dispatches the leases of workers that stop heartbeating:
//
//	POST   /v1/workers                    worker registration
//	POST   /v1/workers/{id}/heartbeat     liveness (410: re-register)
//	POST   /v1/workers/{id}/leases        claim cells
//	POST   /v1/workers/{id}/complete      deliver a validated result
//	GET    /v1/fleet                      fleet status (workers, leases)
//
// Admission is bounded (-queue): when the queue is full the server answers
// 429 with Retry-After instead of blocking. SIGINT/SIGTERM shut down
// gracefully — running cells drain through the checkpoint path, then the
// listener closes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"wdmlat/internal/campaign/store"
	"wdmlat/internal/cli"
	"wdmlat/internal/metrics"
	"wdmlat/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	cache := flag.String("cache", "latserved-cache", "content-addressed result cache directory (empty disables caching)")
	jobs := flag.Int("jobs", runtime.GOMAXPROCS(0), "concurrent simulation workers per campaign")
	queue := flag.Int("queue", 16, "max campaigns admitted but not yet running (beyond it: 429)")
	campaigns := flag.Int("campaigns", 1, "campaigns executing concurrently")
	drain := flag.Duration("drain", time.Minute, "shutdown grace for open HTTP connections after jobs drain")
	fleet := flag.Bool("fleet", false, "coordinator mode: lease cells to latworkd workers instead of simulating in-process")
	leaseTTL := flag.Duration("lease-ttl", 10*time.Second, "fleet: reclaim a worker's leases after this long without a heartbeat")
	poll := flag.Duration("poll", 500*time.Millisecond, "fleet: idle-worker re-poll hint")
	cli.AddVersionFlag("latserved", flag.CommandLine)
	flag.Parse()

	reg := metrics.NewRegistry()
	var st *store.Store
	var journal *server.Journal
	if *cache != "" {
		var err error
		st, err = store.Open(*cache)
		if err != nil {
			fail(err)
		}
		st.Instrument(reg)
		// The journal lives beside the cell cache: together they are the
		// server's durable state. On restart its unfinished campaigns are
		// re-admitted — finished cells replay from the cache, the rest
		// re-execute (or re-dispatch, in fleet mode) — so a crash or
		// redeploy mid-campaign resumes instead of failing waiters.
		journal, err = server.OpenJournal(filepath.Join(*cache, "latserved.journal"))
		if err != nil {
			fail(err)
		}
	}
	srvOpts := server.Options{
		Jobs:        *jobs,
		QueueLimit:  *queue,
		Concurrency: *campaigns,
		Store:       st,
		Metrics:     reg,
		Journal:     journal,
	}
	if *fleet {
		srvOpts.Fleet = &server.CoordinatorOptions{LeaseTTL: *leaseTTL, Poll: *poll}
	}
	srv := server.New(srvOpts)
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	ctx, stop := cli.SignalContext()
	defer stop()
	go func() {
		<-ctx.Done()
		fmt.Fprintln(os.Stderr, "latserved: shutting down: draining running campaigns")
		// Drain jobs first: their terminal events end any open watch
		// streams, so the HTTP shutdown below does not wait on them.
		srv.Close()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintln(os.Stderr, "latserved: shutdown:", err)
		}
	}()

	mode := "local execution"
	if *fleet {
		mode = fmt.Sprintf("fleet coordinator (lease TTL %s)", *leaseTTL)
	}
	fmt.Fprintf(os.Stderr, "latserved: listening on %s (cache %q, %d workers/campaign, queue %d, %s)\n",
		*addr, *cache, *jobs, *queue, mode)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fail(err)
	}
	<-ctx.Done() // ListenAndServe returned because Shutdown ran; let it finish
	srv.Close()
	_ = journal.Close()
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "latserved:", err)
	os.Exit(1)
}
