// reproduce regenerates the full experimental record of EXPERIMENTS.md in
// one invocation: every table and figure, the §4.2/§5.2/§1.2 analyses, and
// the ablations, written as text artifacts under -outdir (default
// ./results).
//
// The measurement campaign fans out across -jobs workers (default
// GOMAXPROCS): every simulation cell is submitted to the campaign pool up
// front and each artifact is emitted as soon as the cells it depends on
// complete. Runs are deterministic for a given -seed, and because per-cell
// seeds are derived from the cell key (never from scheduling order), the
// artifacts are byte-identical for every -jobs value.
//
// With -checkpoint dir, every finished cell is persisted under dir, and a
// re-run of the same campaign skips cells already completed — a killed
// multi-hour matrix resumes instead of restarting, with byte-identical
// artifacts. SIGINT/SIGTERM cancels gracefully: no new cells are
// dispatched, running cells drain into the store, and the process exits
// non-zero naming the cells it had to drop.
//
// The campaign's own behavior is observable out-of-band: -progress reports
// cells done/total with throughput and an ETA, -telemetry out.json writes
// the final metrics snapshot (cell outcomes, checkpoint hits/misses,
// worker utilization, per-cell wall-time distribution), and -cpuprofile /
// -memprofile expose the stdlib profilers. None of these affect
// the artifacts, which stay byte-identical with telemetry on or off.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"wdmlat/internal/campaign"
	"wdmlat/internal/cli"
	"wdmlat/internal/core"
	"wdmlat/internal/figures"
	"wdmlat/internal/interactive"
	"wdmlat/internal/microbench"
	"wdmlat/internal/mttf"
	"wdmlat/internal/ospersona"
	"wdmlat/internal/par"
	"wdmlat/internal/report"
	"wdmlat/internal/rma"
	"wdmlat/internal/workload"
)

var oses = []ospersona.OS{ospersona.NT4, ospersona.Win98}

func main() {
	duration := flag.Duration("duration", 15*time.Minute, "virtual collection per cell")
	seed := flag.Uint64("seed", 3, "simulation seed")
	outdir := flag.String("outdir", "results", "artifact directory")
	runs := flag.Int("runs", 1, "replicas pooled per cell")
	jobs := flag.Int("jobs", runtime.GOMAXPROCS(0), "concurrent simulation workers")
	checkpoint := flag.String("checkpoint", "", "checkpoint directory: persist finished cells and skip them on re-run")
	encodeOut := flag.String("encode", "", "also write the default matrix's raw per-cell results (exact codec bytes, cell order) to this file — the stream latserved serves for the same campaign")
	precf := cli.AddPrecisionFlags(flag.CommandLine)
	obs := cli.NewObs("reproduce", flag.CommandLine)
	cli.AddVersionFlag("reproduce", flag.CommandLine)
	flag.Parse()
	pol, err := precf.Policy()
	if err != nil {
		fail(err)
	}
	if pol != nil && *runs != 1 {
		fail(fmt.Errorf("-precision chooses replica counts adaptively; drop -runs"))
	}

	if err := os.MkdirAll(*outdir, 0o755); err != nil {
		fail(err)
	}
	if err := obs.Start(); err != nil {
		fail(err)
	}
	start := time.Now()

	// --- Submit the whole campaign up front ---------------------------------
	// Every core.Run cell of every artifact goes to one bounded pool; the
	// emission code below blocks only on the cells each artifact needs.
	ctx, stop := cli.SignalContext()
	defer stop()
	st, err := cli.OpenStore(*checkpoint, obs.Registry)
	if err != nil {
		fail(err)
	}
	run := campaign.New(campaign.Options{BaseSeed: *seed, Jobs: *jobs, Context: ctx, Store: st, Metrics: obs.Registry})
	failedRun, failedObs = run, obs
	obs.StartProgress(run)
	base := core.RunConfig{Duration: *duration}

	scannerKey := campaign.MatrixKey(ospersona.Win98, workload.Business, "scanner")
	scannerCfg := base
	scannerCfg.OS = ospersona.Win98
	scannerCfg.Workload = workload.Business
	scannerCfg.VirusScanner = true

	// In fixed-replica mode every cell is submitted up front. With a
	// -precision policy, the adaptive loops below own replica submission:
	// each logical cell keeps adding replicas until its tail quantiles
	// converge to the requested half-width (DESIGN.md §12).
	if pol == nil {
		step("campaign: %d cells x %d replicas on %d workers (%v virtual per cell)",
			2*len(workload.Classes)+1, *runs, *jobs, *duration)
		run.Submit(campaign.MatrixCells(oses, workload.Classes, "default", base, *runs)...)
		run.Submit(campaign.Replicas(scannerKey, scannerCfg, *runs)...)
	} else {
		step("adaptive campaign: %d logical cells on %d workers (%v virtual per cell, rel half-width %g)",
			2*len(workload.Classes)+1, *jobs, *duration, pol.RelWidth)
	}

	causeKey := campaign.MatrixKey(ospersona.Win98, workload.Business, "causetool")
	run.Submit(campaign.Cell{Key: causeKey, Config: core.RunConfig{
		OS: ospersona.Win98, Workload: workload.Business, Duration: *duration,
		SoundScheme: true, CauseAnalysis: true,
		CauseThreshold: 6 * time.Millisecond,
	}})

	// The non-campaign pipelines (throughput script, microbenchmarks,
	// interactive response) run concurrently with the pool.
	var (
		auxWG sync.WaitGroup
		tp    [2]core.ThroughputResult
		mb    [2]microbench.Results
		ir    [2]*interactive.Result
	)
	auxWG.Add(1)
	go func() {
		defer auxWG.Done()
		par.ForEach(len(oses), *jobs, func(i int) {
			tp[i] = core.RunThroughput(oses[i], 300, *seed)
			mb[i] = microbench.Run(oses[i], *seed, 1000)
			ir[i] = interactive.Run(interactive.Config{
				OS: oses[i], Workload: workload.Business, Duration: *duration, Seed: *seed,
			})
		})
	}()

	// --- Tables 1 and 2 (static) -------------------------------------------
	emit(*outdir, "table1.txt", func(w io.Writer) error {
		return figures.Table1().Write(w)
	})
	emit(*outdir, "table2.txt", func(w io.Writer) error {
		for _, osSel := range oses {
			if err := figures.Table2(osSel).Write(w); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
		return nil
	})

	// --- The measurement campaign: both OSes × all workloads ----------------
	// Collection order is fixed (OS, then class, then replica index), so the
	// pooled results — and every artifact below — are independent of worker
	// count and completion order.
	byOS := map[ospersona.OS]map[workload.Class]*core.Result{}
	var ads map[string]campaign.Adaptive
	var scannerRes *core.Result
	var scannerAd campaign.Adaptive
	if pol != nil {
		// The scanner cell's adaptive loop runs concurrently with the
		// matrix; the runner's pool still bounds actual parallelism.
		var scanWG sync.WaitGroup
		var scanErr error
		scanWG.Add(1)
		go func() {
			defer scanWG.Done()
			scannerRes, scannerAd, scanErr = run.MergedAdaptive(scannerKey, scannerCfg, *pol)
		}()
		m, a, err := run.RunMatrixAdaptive(oses, workload.Classes, "default", base, *pol)
		if err != nil {
			cli.FailCampaign("reproduce", run, obs, err)
		}
		byOS, ads = m, a
		scanWG.Wait()
		if scanErr != nil {
			cli.FailCampaign("reproduce", run, obs, scanErr)
		}
	} else {
		for _, osSel := range oses {
			byOS[osSel] = map[workload.Class]*core.Result{}
			for _, wl := range workload.Classes {
				res, err := run.Merged(campaign.MatrixKey(osSel, wl, "default"), *runs)
				if err != nil {
					cli.FailCampaign("reproduce", run, obs, err)
				}
				byOS[osSel][wl] = res
			}
		}
	}

	// The -encode stream: the default matrix's replica cells, raw (not
	// pooled), in MatrixCells order — exactly the byte stream the campaign
	// service serves for this campaign, which serve-smoke diffs.
	if *encodeOut != "" {
		emit(filepath.Dir(*encodeOut), filepath.Base(*encodeOut), func(w io.Writer) error {
			if pol != nil {
				// Adaptive campaigns stream one pooled document per logical
				// cell, matching what latserved serves for the same
				// Precision-bearing spec.
				for _, osSel := range oses {
					for _, wl := range workload.Classes {
						if err := core.EncodeResult(w, byOS[osSel][wl]); err != nil {
							return err
						}
					}
				}
				return nil
			}
			for _, cell := range campaign.MatrixCells(oses, workload.Classes, "default", base, *runs) {
				res, err := run.Result(cell.Key)
				if err != nil {
					return err
				}
				if err := core.EncodeResult(w, res); err != nil {
					return err
				}
			}
			return nil
		})
	}

	// Figure 4 panels per OS.
	for _, osSel := range oses {
		osSel := osSel
		name := ospersona.ProfileFor(osSel).Name
		fname := "figure4_nt4.txt"
		if osSel == ospersona.Win98 {
			fname = "figure4_win98.txt"
		}
		emit(*outdir, fname, func(w io.Writer) error {
			dpc, t28, t24 := figures.Figure4Panels(byOS[osSel])
			if err := report.WriteLogLog(w, name+" DPC Interrupt Latency in Milliseconds (Figure 4)", dpc); err != nil {
				return err
			}
			fmt.Fprintln(w)
			if err := report.WriteLogLog(w, name+" Kernel Mode Thread (RT Priority 28) Latency (Figure 4)", t28); err != nil {
				return err
			}
			fmt.Fprintln(w)
			return report.WriteLogLog(w, name+" Kernel Mode Thread (RT Priority 24) Latency (Figure 4)", t24)
		})
		emit(*outdir, fname[:len(fname)-4]+".csv", func(w io.Writer) error {
			dpc, t28, t24 := figures.Figure4Panels(byOS[osSel])
			for _, s := range [][]report.Series{dpc, t28, t24} {
				if err := report.WriteCSV(w, s); err != nil {
					return err
				}
				fmt.Fprintln(w)
			}
			return nil
		})
	}

	// Table 3, both OSes. poolDesc keeps the fixed-mode titles byte-stable
	// while letting adaptive runs say what actually pooled.
	poolDesc := fmt.Sprintf("%v x %d per class", *duration, *runs)
	if pol != nil {
		poolDesc = fmt.Sprintf("%v x adaptive(w=%g) per class", *duration, pol.RelWidth)
	}
	emit(*outdir, "table3_win98.txt", func(w io.Writer) error {
		return figures.Table3(byOS[ospersona.Win98],
			fmt.Sprintf("Table 3: Observed Worst Case Windows 98 Latencies (ms), %s", poolDesc)).Write(w)
	})
	emit(*outdir, "table3_nt4.txt", func(w io.Writer) error {
		return figures.Table3(byOS[ospersona.NT4],
			fmt.Sprintf("Table 3 (NT side): Observed Worst Case NT 4.0 Latencies (ms), %s", poolDesc)).Write(w)
	})

	// Adaptive runs get a statistical appendix: the per-cell precision
	// table and the confidence-band CSV form of the Figure 4 panels. Gated
	// on -precision so the default artifact set stays byte-identical.
	if pol != nil {
		p := pol.Normalized()
		step("precision summary")
		emit(*outdir, "precision.txt", func(w io.Writer) error {
			title := fmt.Sprintf("Adaptive precision summary: rel half-width %g at %.0f%% confidence",
				p.RelWidth, p.Confidence*100)
			if err := figures.PrecisionTable(oses, workload.Classes, "default", byOS, ads, p, title).Write(w); err != nil {
				return err
			}
			fmt.Fprintf(w, "\nscanner cell %s: %d replicas, converged=%v\n",
				scannerKey, scannerAd.Replicas, scannerAd.Converged)
			return nil
		})
		emit(*outdir, "precision.csv", func(w io.Writer) error {
			for _, osSel := range oses {
				dpc, t28, t24 := figures.Figure4BandPanels(byOS[osSel], p.Confidence)
				for _, s := range [][]report.BandSeries{dpc, t28, t24} {
					if err := report.WriteBandCSV(w, s); err != nil {
						return err
					}
					fmt.Fprintln(w)
				}
			}
			return nil
		})
	}

	// Figures 6 and 7 from the Win98 distributions.
	step("MTTF curves")
	emit(*outdir, "figure6_dpc.txt", func(w io.Writer) error {
		curves := map[workload.Class][]mttf.Point{}
		for wl, r := range byOS[ospersona.Win98] {
			curves[wl] = mttf.Sweep(r.DpcInt, r.UsageObserved(), 4, 0.25, 17)
		}
		return figures.MTTFTable(curves, "Figure 6: MTTF to underrun, DPC-based datapump, Windows 98 (t=4ms)").Write(w)
	})
	emit(*outdir, "figure7_thread.txt", func(w io.Writer) error {
		curves := map[workload.Class][]mttf.Point{}
		for wl, r := range byOS[ospersona.Win98] {
			curves[wl] = mttf.Sweep(r.HwToThread[r.HighPriority()], r.UsageObserved(), 16, 0.25, 7)
		}
		return figures.MTTFTable(curves, "Figure 7: MTTF to underrun, thread-based datapump, Windows 98 (t=16ms)").Write(w)
	})

	// --- Figure 5: virus scanner --------------------------------------------
	step("Figure 5 (virus scanner)")
	emit(*outdir, "figure5_scanner.txt", func(w io.Writer) error {
		dirty := scannerRes
		if pol == nil {
			var err error
			dirty, err = run.Merged(scannerKey, *runs)
			if err != nil {
				return err
			}
		}
		clean := byOS[ospersona.Win98][workload.Business]
		at := dirty.Freq.FromMillis(15)
		fmt.Fprintf(w, "Figure 5: Effect of the Virus Scanner on RT Thread Latency (Win98, Business)\n\n")
		fmt.Fprintf(w, "P(thread latency >= 15 ms) per wait:\n")
		fmt.Fprintf(w, "  virus scanner ON : %.3g\n", dirty.Thread[24].CCDF(at))
		fmt.Fprintf(w, "  no virus scanner : %.3g\n", clean.Thread[24].CCDF(at))
		fmt.Fprintf(w, "worst case: %.1f ms (scanner) vs %.1f ms (clean)\n",
			dirty.Freq.Millis(dirty.Thread[24].Max()), clean.Freq.Millis(clean.Thread[24].Max()))
		return report.WriteLogLog(w, "Win98 Kernel Mode Thread (RT 24) Latency, scanner ON",
			[]report.Series{report.NewSeries("Business Apps w. Virus Scanner", dirty.Thread[24], 0.125, 128)})
	})

	// --- §4.2 throughput ------------------------------------------------------
	step("throughput")
	auxWG.Wait()
	emit(*outdir, "sec42_throughput.txt", func(w io.Writer) error {
		t := &report.Table{
			Title:   "Winstone-style throughput (§4.2)",
			Headers: []string{"System", "Script time (s)", "Score"},
		}
		for _, r := range tp {
			t.AddRow(r.OSName, fmt.Sprintf("%.2f", r.Seconds()), fmt.Sprintf("%.2f", r.Score()))
		}
		if err := t.Write(w); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nScore delta: %.1f%% (paper: ~10%% avg, 20%% max)\n", core.ThroughputDelta(tp[0], tp[1])*100)
		return nil
	})

	// --- Table 4: cause tool ---------------------------------------------------
	step("Table 4 (cause tool)")
	emit(*outdir, "table4_causetool.txt", func(w io.Writer) error {
		r, err := run.Result(causeKey)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Table 4: Cause Tool Output, Win98 w. Biz Apps, Default Sound Scheme (%d episodes)\n\n", len(r.Episodes))
		n := len(r.Episodes)
		if n > 4 {
			n = 4
		}
		for i := 0; i < n; i++ {
			if i > 0 {
				fmt.Fprintln(w)
			}
			if err := r.Episodes[i].Format(w); err != nil {
				return err
			}
		}
		return nil
	})

	// --- §5.2 schedulability ----------------------------------------------------
	step("§5.2 schedulability")
	emit(*outdir, "sec52_rma.txt", func(w io.Writer) error {
		for _, osSel := range oses {
			r := byOS[osSel][workload.Games]
			h := r.HwToThread[r.HighPriority()]
			block := rma.PseudoWorstCase(h, r.UsageObserved(), r.Freq.Cycles(time.Hour))
			fmt.Fprintf(w, "%s: pseudo worst case @ 1 drop/hour = %.2f ms\n", r.OSName, r.Freq.Millis(block))
			task := rma.Task{Name: "softmodem", Period: r.Freq.FromMillis(8), Compute: r.Freq.FromMillis(2), Blocking: block}
			if err := task.Validate(); err != nil {
				fmt.Fprintf(w, "  -> infeasible: %v\n\n", err)
				continue
			}
			res, ok, err := rma.Analyze([]rma.Task{task})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "  -> response %.1f ms, schedulable=%v\n\n", r.Freq.Millis(res[0].Response), ok)
		}
		return nil
	})

	// --- §1.2: microbench + interactive ------------------------------------------
	step("§1.2 baselines")
	emit(*outdir, "sec12_microbench.txt", func(w io.Writer) error {
		t := &report.Table{
			Title:   "Traditional microbenchmarks: idle-system averages (µs)",
			Headers: []string{"Primitive"},
		}
		for _, r := range mb {
			t.Headers = append(t.Headers, r.OSName)
		}
		add := func(name string, pick func(microbench.Results) microbench.Stat) {
			row := []string{name}
			for _, r := range mb {
				row = append(row, fmt.Sprintf("%.1f", pick(r).MeanUS))
			}
			t.AddRow(row...)
		}
		add("context switch", func(r microbench.Results) microbench.Stat { return r.ContextSwitch })
		add("event signal", func(r microbench.Results) microbench.Stat { return r.EventSignal })
		add("dpc dispatch", func(r microbench.Results) microbench.Stat { return r.DpcDispatch })
		add("interrupt dispatch", func(r microbench.Results) microbench.Stat { return r.InterruptDispatch })
		return t.Write(w)
	})
	emit(*outdir, "sec12_interactive.txt", func(w io.Writer) error {
		t := &report.Table{
			Title:   "Interactive response under Business stress (Endo-style, §1.2)",
			Headers: []string{"System", "p50 (ms)", "p99 (ms)", "worst (ms)", "within 150 ms"},
		}
		for _, r := range ir {
			t.AddRow(r.OSName,
				fmt.Sprintf("%.1f", r.Freq.Millis(r.Response.Quantile(0.5))),
				fmt.Sprintf("%.1f", r.Freq.Millis(r.Response.Quantile(0.99))),
				fmt.Sprintf("%.1f", r.Freq.Millis(r.Response.Max())),
				fmt.Sprintf("%.2f%%", r.WithinMS(150)*100))
		}
		return t.Write(w)
	})

	if err := run.Wait(); err != nil {
		cli.FailCampaign("reproduce", run, obs, err)
	}
	if err := obs.Close(); err != nil {
		fail(err)
	}
	fmt.Printf("done in %v; artifacts in %s/\n", time.Since(start).Round(time.Second), *outdir)
}

func step(format string, args ...any) {
	fmt.Printf("== "+format+"\n", args...)
}

// failedRun/failedObs let emit's error path drain the campaign and flush
// telemetry before exiting, so an interrupted reproduce still persists its
// running cells' checkpoints and its metrics snapshot.
var (
	failedRun *campaign.Runner
	failedObs *cli.Obs
)

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
		if failedRun != nil {
			cli.FailCampaign("reproduce", failedRun, failedObs, err)
		}
		fail(err)
	}
	fmt.Printf("   wrote %s\n", filepath.Join(dir, name))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "reproduce:", err)
	os.Exit(1)
}
