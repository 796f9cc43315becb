// latworkd is a fleet worker for latserved -fleet: it registers with the
// coordinator, leases measurement cells by checkpoint fingerprint, runs
// them through the exact same simulator a local campaign would, and
// delivers each result as its canonical checkpoint encoding. Workers are
// interchangeable by construction — every lease is verified against the
// worker's own fingerprint derivation before it executes, so a worker
// built from diverged code refuses work instead of corrupting a campaign.
//
// Run as many as the hardware allows:
//
//	latworkd -coord http://coordinator:8080 -name $(hostname) -cells 2
//
// -cells N runs N lease loops, each holding at most one cell: a loop
// leases a cell, runs it and delivers it before it asks for the next, so
// N bounds the cells the worker runs at once.
//
// SIGINT/SIGTERM stop leasing. A cell already executing runs to the end
// and is checkpointed under -cache, but its delivery is abandoned; the
// coordinator re-dispatches it once the lease expires.
//
// Losing the coordinator (restart, network partition) is survivable: all
// calls retry with jittered backoff, a worker whose registration expired
// transparently re-registers, and once registered a worker rides out
// arbitrary coordinator downtime instead of exiting.
//
// With -cache the worker is checkpoint-backed: every executed cell is
// persisted under its content fingerprint before delivery, and every
// lease is answered from the cache when its fingerprint is already there
// — so a cell whose completion was lost to a coordinator crash, or one
// re-dispatched from a dead neighbor, costs a disk read instead of a
// re-simulation (the coordinator counts these as fleet_cells_cache_hit).
// Point several workers at one shared directory and they pool their
// checkpoints; the files are the same ones latserved -cache and a local
// `reproduce -checkpoint` run read and write.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"wdmlat/internal/campaign/store"
	"wdmlat/internal/cli"
	"wdmlat/internal/client"
)

func main() {
	coord := flag.String("coord", "http://127.0.0.1:8080", "coordinator (latserved -fleet) base URL")
	name := flag.String("name", "", "worker label for coordinator logs and /v1/fleet")
	cells := flag.Int("cells", 1, "lease loops, each holding at most one cell (cells executing concurrently)")
	cache := flag.String("cache", "latworkd-cache", "checkpoint store consulted before executing and populated after (empty disables)")
	quiet := flag.Bool("quiet", false, "suppress per-cell progress lines")
	cli.AddVersionFlag("latworkd", flag.CommandLine)
	flag.Parse()

	ctx, stop := cli.SignalContext()
	defer stop()

	var st *store.Store
	if *cache != "" {
		var err error
		st, err = store.Open(*cache)
		if err != nil {
			fmt.Fprintln(os.Stderr, "latworkd:", err)
			os.Exit(1)
		}
	}
	c := client.New(*coord, client.Options{})
	opts := client.WorkerOptions{Name: *name, Cells: *cells, Store: st}
	if !*quiet {
		opts.OnCell = func(key string, err error) {
			if err != nil {
				fmt.Fprintf(os.Stderr, "latworkd: cell %s: %v\n", key, err)
				return
			}
			fmt.Fprintf(os.Stderr, "latworkd: cell %s done\n", key)
		}
	}
	fmt.Fprintf(os.Stderr, "latworkd: joining fleet at %s (%d concurrent cells)\n", *coord, *cells)
	err := c.RunWorker(ctx, opts)
	switch {
	case err == nil:
		fmt.Fprintln(os.Stderr, "latworkd: coordinator drained; exiting")
	case errors.Is(err, context.Canceled):
		fmt.Fprintln(os.Stderr, "latworkd: signal received; exiting")
	default:
		fmt.Fprintln(os.Stderr, "latworkd:", err)
		os.Exit(1)
	}
}
