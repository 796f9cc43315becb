// stormsweep maps the interrupt-storm frontier: for each OS persona × NIC
// interrupt-moderation mode it sweeps offered packet rate until the
// deterministic livelock criterion trips (ring drops, CPU starvation, or
// unbounded backlog growth), bisects the knee, and writes the frontier
// tables, an ASCII knee chart, and per-probe latency-CCDF CSVs under
// -outdir. It also runs the frame-pacing cells — the vblank-paced
// presentation app, idle and under a sustainable storm — and reports each
// persona's missed-frame and judder distributions.
//
// The sweep rides the campaign runner, so it inherits -jobs parallelism,
// -checkpoint resume, SIGINT drain, and the byte-identity contract: the
// artifacts are identical for any -jobs value and for cold vs warm stores
// (the frontier property tests pin exactly this).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"wdmlat/internal/campaign"
	"wdmlat/internal/cli"
	"wdmlat/internal/core"
	"wdmlat/internal/figures"
	"wdmlat/internal/frontier"
	"wdmlat/internal/hw"
	"wdmlat/internal/report"
	"wdmlat/internal/workload"
)

func main() {
	osFlag := flag.String("os", "both", "persona(s) to sweep: nt4, win98, win2000, both or all")
	modesFlag := flag.String("modes", "per-assert,itr", "NIC moderation modes to sweep (per-assert, itr, adaptive; comma-separated)")
	minPPS := flag.Float64("min-pps", 4096, "sweep floor, offered packets/sec")
	maxPPS := flag.Float64("max-pps", 262144, "sweep ceiling, offered packets/sec")
	bisect := flag.Int("bisect", 3, "log-space bisection probes refining the knee bracket")
	duration := flag.Duration("duration", 2*time.Second, "virtual collection per replica")
	runs := flag.Int("runs", 3, "replicas pooled per probe")
	seed := flag.Uint64("seed", 7, "simulation seed")
	jobs := flag.Int("jobs", runtime.GOMAXPROCS(0), "concurrent simulation workers")
	checkpoint := flag.String("checkpoint", "", "checkpoint directory: persist finished cells and skip them on re-run")
	outdir := flag.String("outdir", "results", "artifact directory")
	bytesFlag := flag.Int("bytes", 1460, "storm frame size in bytes")
	gapUS := flag.Float64("gap-us", 250, "moderation gap for itr/adaptive modes, microseconds")
	pacing := flag.Bool("pacing", false, "attach the frame pacer to every storm probe too")
	precf := cli.AddPrecisionFlags(flag.CommandLine)
	obs := cli.NewObs("stormsweep", flag.CommandLine)
	cli.AddVersionFlag("stormsweep", flag.CommandLine)
	flag.Parse()

	pol, err := precf.Policy()
	if err != nil {
		fail(err)
	}
	if pol != nil && *runs != 3 {
		fail(fmt.Errorf("-precision chooses replica counts adaptively; drop -runs"))
	}
	oses, err := cli.ParseOSList(*osFlag)
	if err != nil {
		fail(err)
	}
	modes, err := parseModes(*modesFlag)
	if err != nil {
		fail(err)
	}
	if err := os.MkdirAll(*outdir, 0o755); err != nil {
		fail(err)
	}
	if err := obs.Start(); err != nil {
		fail(err)
	}
	st, err := cli.OpenStore(*checkpoint, obs.Registry)
	if err != nil {
		fail(err)
	}
	ctx, stop := cli.SignalContext()
	defer stop()
	run := campaign.New(campaign.Options{
		BaseSeed: *seed, Jobs: *jobs, Context: ctx, Store: st, Metrics: obs.Registry,
	})
	obs.StartProgress(run)

	// The frame-pacing cells run alongside the sweep on the same pool: per
	// persona, the presentation app on an otherwise idle machine, under a
	// storm pinned at the sweep floor (a rate every persona sustains), and
	// under the games stress workload — the cell where Windows 98's
	// scheduler-locked windows turn into user-visible missed frames.
	paceLabels := make([]string, 0, 3*len(oses))
	paceCells := make([]campaign.Cell, 0, 3*len(oses))
	for _, o := range oses {
		for _, variant := range []string{"idle", "storm", "games"} {
			cfg := core.RunConfig{
				OS: o, Idle: true, Duration: *duration, FramePacing: true,
			}
			switch variant {
			case "storm":
				cfg.StormPPS = *minPPS
				cfg.StormBytes = *bytesFlag
			case "games":
				cfg.Idle = false
				cfg.Workload = workload.Games
			}
			label := campaign.Key("pace", campaign.OSSlug(o), variant)
			paceLabels = append(paceLabels, label)
			paceCells = append(paceCells, campaign.Cell{Key: campaign.ReplicaKey(label, 0), Config: cfg})
		}
	}
	run.Submit(paceCells...)

	fmt.Printf("stormsweep: %d track(s) over [%d, %d] pps on %d workers (%v per replica)\n",
		len(oses)*len(modes), int64(*minPPS), int64(*maxPPS), *jobs, *duration)
	fs, err := frontier.Run(run, frontier.Options{
		OSes:        oses,
		Modes:       modes,
		MinPPS:      *minPPS,
		MaxPPS:      *maxPPS,
		BisectSteps: *bisect,
		Duration:    *duration,
		Runs:        *runs,
		Precision:   pol,
		StormBytes:  *bytesFlag,
		NICGapUS:    *gapUS,
		FramePacing: *pacing,
		Metrics:     obs.Registry,
	})
	if err != nil {
		cli.FailCampaign("stormsweep", run, obs, err)
	}

	emit(*outdir, "frontier.txt", func(w io.Writer) error {
		if err := figures.FrontierKneeTable(fs,
			"Interrupt-storm frontier: livelock knee by persona x moderation mode").Write(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
		if err := figures.FrontierKneeChart(w, "Knee chart (offered load each persona sustains)", fs); err != nil {
			return err
		}
		fmt.Fprintln(w)
		return figures.FrontierProbeTable(fs, "All probes").Write(w)
	})
	for i := range fs {
		f := &fs[i]
		name := fmt.Sprintf("frontier_%s_%s.csv", campaign.OSSlug(f.OS), f.Mode)
		emit(*outdir, name, func(w io.Writer) error {
			return report.WriteCSV(w, figures.FrontierCCDFSeries(f, 0.015625, 128))
		})
	}

	paceResults := make(map[string]*core.Result, len(paceLabels))
	for _, label := range paceLabels {
		r, err := run.Merged(label, 1)
		if err != nil {
			cli.FailCampaign("stormsweep", run, obs, err)
		}
		paceResults[label] = r
	}
	emit(*outdir, "pacing.txt", func(w io.Writer) error {
		return figures.PacingTable(paceLabels, paceResults,
			"Frame pacing (60 Hz vblank) by persona: idle, under a sustained storm,\n"+
				"and under the games stress workload").Write(w)
	})
	for _, label := range paceLabels {
		name := strings.ReplaceAll(label, "/", "_") + ".csv"
		emit(*outdir, name, func(w io.Writer) error {
			return report.WriteCSV(w, figures.PacingSeries(paceResults[label], 0.015625, 128))
		})
	}

	if err := run.Wait(); err != nil {
		cli.FailCampaign("stormsweep", run, obs, err)
	}
	if err := obs.Close(); err != nil {
		fail(err)
	}
}

// parseModes resolves the -modes flag against hw.Moderation's String names.
func parseModes(s string) ([]hw.Moderation, error) {
	var out []hw.Moderation
	for _, part := range strings.Split(s, ",") {
		switch strings.ToLower(strings.TrimSpace(part)) {
		case "per-assert", "per-window", "none":
			out = append(out, hw.ModeratePerWindow)
		case "itr", "throttle":
			out = append(out, hw.ModerateITR)
		case "adaptive":
			out = append(out, hw.ModerateAdaptive)
		case "":
		default:
			return nil, fmt.Errorf("unknown moderation mode %q (want per-assert, itr or adaptive)", part)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no moderation modes selected")
	}
	return out, nil
}

func emit(dir, name string, fn func(io.Writer) error) {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		fail(err)
	}
	err = fn(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fail(err)
	}
	fmt.Printf("   wrote %s\n", filepath.Join(dir, name))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "stormsweep:", err)
	os.Exit(1)
}
