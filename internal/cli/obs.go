package cli

// Obs is the observability surface shared by the experiment binaries: a
// metrics registry for the campaign runner and checkpoint store, a
// periodic progress reporter (-progress), a final telemetry snapshot
// (-telemetry out.json), and the stdlib profiling hooks (-cpuprofile,
// -memprofile). All of it is out-of-band with respect to the
// simulation: the artifacts a binary writes are byte-identical whether
// these flags are set or not.

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"wdmlat/internal/campaign"
	"wdmlat/internal/metrics"
)

// progressInterval is how often -progress reports. A var so tests can
// shorten it.
var progressInterval = 2 * time.Second

// Obs bundles the observability flags, the metrics registry and the
// lifecycle of the profiling hooks for one binary. Create with NewObs
// before flag parsing, Start after it, and Close on exit (FailCampaign
// closes it on the failure path).
type Obs struct {
	name     string
	Registry *metrics.Registry

	progress   *bool
	telemetry  *string
	cpuprofile *string
	memprofile *string

	started time.Time
	cpuOut  *os.File
	stop    chan struct{}
	wg      sync.WaitGroup
}

// NewObs registers the shared observability flags on fs (the binaries pass
// flag.CommandLine) and returns the handle that owns them. The registry is
// always live — collection costs a few atomic adds per cell — and the
// flags only control what is *reported*.
func NewObs(name string, fs *flag.FlagSet) *Obs {
	o := &Obs{name: name, Registry: metrics.NewRegistry()}
	o.progress = fs.Bool("progress", false, "periodically report campaign progress (cells done/total, throughput, ETA) on stderr")
	o.telemetry = fs.String("telemetry", "", "write the final metrics snapshot as JSON to this file")
	o.cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
	o.memprofile = fs.String("memprofile", "", "write a heap profile to this file on exit")
	return o
}

// Start begins profiling: it starts the CPU profile if -cpuprofile was
// set. Call once, after flag parsing.
func (o *Obs) Start() error {
	o.started = time.Now()
	if *o.cpuprofile != "" {
		f, err := os.Create(*o.cpuprofile)
		if err != nil {
			return fmt.Errorf("%s: cpuprofile: %w", o.name, err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("%s: cpuprofile: %w", o.name, err)
		}
		o.cpuOut = f
	}
	return nil
}

// StartProgress begins the periodic -progress reporter polling run. A
// no-op unless -progress was set.
func (o *Obs) StartProgress(run *campaign.Runner) {
	if !*o.progress || run == nil || o.stop != nil {
		return
	}
	o.stop = make(chan struct{})
	o.wg.Add(1)
	go func() {
		defer o.wg.Done()
		t := time.NewTicker(progressInterval)
		defer t.Stop()
		for {
			select {
			case <-o.stop:
				return
			case <-t.C:
				fmt.Fprintln(os.Stderr, o.progressLine(run))
			}
		}
	}()
}

// progressLine formats one progress report: completed/total cells,
// cell throughput, and an ETA projected from the per-cell wall-time
// histogram spread across the pool width.
func (o *Obs) progressLine(run *campaign.Runner) string {
	done, total := run.Progress()
	elapsed := time.Since(o.started)
	pct := 0.0
	if total > 0 {
		pct = 100 * float64(done) / float64(total)
	}
	tput := 0.0
	if elapsed > 0 {
		tput = float64(done) / elapsed.Seconds()
	}
	eta := "?"
	if total > 0 && done >= total {
		eta = "0s"
	} else if mean := o.Registry.Histogram(campaign.MetricCellWallTime).Mean(); mean > 0 && done < total {
		jobs := run.Jobs()
		if jobs < 1 {
			jobs = 1
		}
		left := time.Duration(float64(total-done) / float64(jobs) * float64(mean))
		eta = left.Round(time.Second).String()
	}
	return fmt.Sprintf("%s: %d/%d cells (%.0f%%), %.1f cells/s, ETA %s",
		o.name, done, total, pct, tput, eta)
}

// Close flushes everything the flags asked for: it stops the progress
// reporter (emitting nothing further), stops the CPU profile, writes the
// heap profile, and writes the telemetry snapshot. The first error is
// returned; later steps still run, so a failed heap profile cannot lose
// the telemetry snapshot.
func (o *Obs) Close() error {
	var first error
	keep := func(err error) {
		if first == nil && err != nil {
			first = err
		}
	}
	if o.stop != nil {
		close(o.stop)
		o.wg.Wait()
		o.stop = nil
	}
	if o.cpuOut != nil {
		pprof.StopCPUProfile()
		keep(o.cpuOut.Close())
		o.cpuOut = nil
	}
	if *o.memprofile != "" {
		f, err := os.Create(*o.memprofile)
		if err != nil {
			keep(fmt.Errorf("%s: memprofile: %w", o.name, err))
		} else {
			runtime.GC() // materialize up-to-date allocation statistics
			keep(pprof.WriteHeapProfile(f))
			keep(f.Close())
		}
		*o.memprofile = "" // idempotent: FailCampaign and defer may both Close
	}
	if *o.telemetry != "" {
		f, err := os.Create(*o.telemetry)
		if err != nil {
			keep(fmt.Errorf("%s: telemetry: %w", o.name, err))
		} else {
			keep(o.Registry.WriteJSON(f))
			keep(f.Close())
		}
		*o.telemetry = ""
	}
	return first
}
