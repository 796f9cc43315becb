package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wdmlat/internal/campaign"
	"wdmlat/internal/core"
	"wdmlat/internal/figures"
	"wdmlat/internal/frontier"
	"wdmlat/internal/hw"
	"wdmlat/internal/interactive"
	telemetry "wdmlat/internal/metrics"
	"wdmlat/internal/microbench"
	"wdmlat/internal/mttf"
	"wdmlat/internal/ospersona"
	"wdmlat/internal/par"
	"wdmlat/internal/report"
	"wdmlat/internal/workload"
)

// tracedRecord is an in-process record run with spans around every call
// into a layer: the binary's cells, base seed and worker count, through
// campaign.New (and frontier.Run for the storm record).
type tracedRecord struct {
	tr     *tracer
	root   int
	run    *campaign.Runner
	reg    *telemetry.Registry
	sample atomic.Pointer[core.Result]
}

func newTracedRecord(ctx context.Context, seed uint64) *tracedRecord {
	t := &tracedRecord{tr: newTracer(), reg: telemetry.NewRegistry()}
	t.root = t.tr.reserve()
	t.run = campaign.New(campaign.Options{
		BaseSeed: seed, Jobs: simJobs, Context: ctx, Metrics: t.reg,
		ExecuteCell: func(key string, cfg core.RunConfig) (*core.Result, error) {
			o := t.tr.start("core.run", key, t.root)
			res := core.Run(cfg)
			o.end()
			t.sample.CompareAndSwap(nil, res)
			return res, nil
		},
	})
	return t
}

// runTracedRecord runs record r in-process and traced, and checks that its
// bytes equal the untraced binary run's in a.Ref: the -encode stream for
// the paper record, every artifact for the storm record.
func runTracedRecord(ctx context.Context, r *record, a childArgs) (*runResult, error) {
	d, runs := r.geometry(a.Quick)
	t := newTracedRecord(ctx, a.Seed)
	watch := watchRuntime()
	start := time.Now()
	var got map[string][]byte
	var err error
	layers := metrics{}
	if r.binary == "reproduce" {
		got, err = t.paper(d, runs, a.Seed)
	} else {
		got, err = t.storm(d, runs, layers)
	}
	end := time.Now()
	t.tr.finish(t.root, "campaign.record", r.name, start, end)
	if err != nil {
		return nil, err
	}
	layers.add(watch.finish())

	res := &runResult{Workload: r.name, Seed: a.Seed, Correct: true, Attempted: 1, Wall: end.Sub(start).Seconds()}
	for name, data := range got {
		want, err := os.ReadFile(filepath.Join(a.Ref, name))
		if err != nil {
			res.problem("traced run: %v", err)
			continue
		}
		if !bytes.Equal(data, want) {
			res.problem("traced run: %s differs from the untraced run's", name)
		}
	}

	spans := t.tr.snapshot()
	if err := writeTrace(a.TraceOut, r.name, spans); err != nil {
		return nil, err
	}
	var busy float64
	var lastEnd int64
	var waits []float64
	for _, s := range spans {
		if s.Name != "core.run" {
			continue
		}
		busy += ms(s.dur())
		lastEnd = max(lastEnd, s.End)
		if r.binary == "reproduce" || strings.HasPrefix(s.Req, "pace/") {
			waits = append(waits, float64(s.Start)/1e6) // submitted when the tracer started
		}
	}
	layers.add(spanMetrics(spans))
	layers["campaign.queue_wait_ms_p50"] = median(waits)
	layers["campaign.tail_idle_frac"] = 1 - busy/(simJobs*float64(lastEnd)/1e6)
	layers["stats.merge_ms"] = sum(durations(spans, "stats.merge"))
	layers["figures.emit_ms"] = sum(durations(spans, "figures.emit"))
	layers["core.aux_ms"] = sum(durations(spans, "core.aux"))
	addProbes(res, layers, a.Seed, t.sample.Load(), a.Tmp)
	notExercised(layers, "store.hit_ratio", "server.", "coordinator.", "client.", "gen.", "frontier.")
	res.Metrics = layers
	return res, nil
}

// paper mirrors cmd/reproduce: the default matrix, the virus-scanner
// replicas and the cause-tool cell on the pool, the throughput,
// microbenchmark and interactive pipelines beside it, then pooling and
// figures. It returns the -encode stream.
func (t *tracedRecord) paper(d time.Duration, runs int, seed uint64) (map[string][]byte, error) {
	base := core.RunConfig{Duration: d}
	matrix := campaign.MatrixCells(personas, workload.Classes, "default", base, runs)
	scannerKey := campaign.MatrixKey(ospersona.Win98, workload.Business, "scanner")
	scannerCfg := base
	scannerCfg.OS, scannerCfg.Workload, scannerCfg.VirusScanner = ospersona.Win98, workload.Business, true
	t.run.Submit(matrix...)
	t.run.Submit(campaign.Replicas(scannerKey, scannerCfg, runs)...)
	t.run.Submit(campaign.Cell{Key: campaign.MatrixKey(ospersona.Win98, workload.Business, "causetool"), Config: core.RunConfig{
		OS: ospersona.Win98, Workload: workload.Business, Duration: d,
		SoundScheme: true, CauseAnalysis: true, CauseThreshold: 6 * time.Millisecond,
	}})

	var aux sync.WaitGroup
	aux.Add(1)
	go func() {
		defer aux.Done()
		o := t.tr.start("core.aux", "", t.root)
		defer o.end()
		par.ForEach(len(personas), simJobs, func(i int) {
			core.RunThroughput(personas[i], 300, seed)
			microbench.Run(personas[i], seed, 1000)
			interactive.Run(interactive.Config{OS: personas[i], Workload: workload.Business, Duration: d, Seed: seed})
		})
	}()
	werr := t.run.Wait()
	aux.Wait()
	if werr != nil {
		return nil, werr
	}

	byOS := map[ospersona.OS]map[workload.Class]*core.Result{}
	for _, o := range personas {
		byOS[o] = map[workload.Class]*core.Result{}
		for _, c := range workload.Classes {
			key := campaign.MatrixKey(o, c, "default")
			res, err := t.merged(key, runs)
			if err != nil {
				return nil, err
			}
			byOS[o][c] = res
		}
	}
	if _, err := t.merged(scannerKey, runs); err != nil {
		return nil, err
	}

	o := t.tr.start("figures.emit", "", t.root)
	err := paperFigures(byOS)
	o.end()
	if err != nil {
		return nil, err
	}

	var enc bytes.Buffer
	for _, cell := range matrix {
		res, err := t.run.Result(cell.Key)
		if err != nil {
			return nil, err
		}
		if err := core.EncodeResult(&enc, res); err != nil {
			return nil, err
		}
	}
	return map[string][]byte{"cells.enc": enc.Bytes()}, nil
}

func (t *tracedRecord) merged(key string, runs int) (*core.Result, error) {
	o := t.tr.start("stats.merge", key, t.root)
	defer o.end()
	return t.run.Merged(key, runs)
}

// paperFigures renders the Figure 4 panels, Table 3 and the MTTF curves
// the way cmd/reproduce does, into io.Discard: the figures layer's cost.
func paperFigures(byOS map[ospersona.OS]map[workload.Class]*core.Result) error {
	for _, o := range personas {
		dpc, t28, t24 := figures.Figure4Panels(byOS[o])
		for _, s := range [][]report.Series{dpc, t28, t24} {
			if err := report.WriteLogLog(io.Discard, "Figure 4", s); err != nil {
				return err
			}
			if err := report.WriteCSV(io.Discard, s); err != nil {
				return err
			}
		}
		if err := figures.Table3(byOS[o], "Table 3").Write(io.Discard); err != nil {
			return err
		}
	}
	w98 := byOS[ospersona.Win98]
	dpcCurves, threadCurves := map[workload.Class][]mttf.Point{}, map[workload.Class][]mttf.Point{}
	for wl, r := range w98 {
		dpcCurves[wl] = mttf.Sweep(r.DpcInt, r.UsageObserved(), 4, 0.25, 17)
		threadCurves[wl] = mttf.Sweep(r.HwToThread[r.HighPriority()], r.UsageObserved(), 16, 0.25, 7)
	}
	if err := figures.MTTFTable(dpcCurves, "Figure 6").Write(io.Discard); err != nil {
		return err
	}
	return figures.MTTFTable(threadCurves, "Figure 7").Write(io.Discard)
}

// storm mirrors cmd/stormsweep with its default flags: the frame-pacing
// cells, the frontier sweep over both personas and the per-assert and ITR
// modes, and every artifact it writes.
func (t *tracedRecord) storm(d time.Duration, runs int, layers metrics) (map[string][]byte, error) {
	var labels []string
	var cells []campaign.Cell
	for _, o := range personas {
		for _, variant := range []string{"idle", "storm", "games"} {
			cfg := core.RunConfig{OS: o, Idle: true, Duration: d, FramePacing: true}
			switch variant {
			case "storm":
				cfg.StormPPS, cfg.StormBytes = 4096, 1460
			case "games":
				cfg.Idle, cfg.Workload = false, workload.Games
			}
			label := campaign.Key("pace", campaign.OSSlug(o), variant)
			labels = append(labels, label)
			cells = append(cells, campaign.Cell{Key: campaign.ReplicaKey(label, 0), Config: cfg})
		}
	}
	t.run.Submit(cells...)
	fs, err := frontier.Run(t.run, frontier.Options{
		OSes: personas, Modes: []hw.Moderation{hw.ModeratePerWindow, hw.ModerateITR},
		MinPPS: 4096, MaxPPS: 262144, BisectSteps: 3, Duration: d, Runs: runs,
		StormBytes: 1460, NICGapUS: 250, Metrics: t.reg,
	})
	if err != nil {
		return nil, err
	}
	files := map[string][]byte{}
	o := t.tr.start("figures.emit", "", t.root)
	var b bytes.Buffer
	if err := figures.FrontierKneeTable(fs, "Interrupt-storm frontier: livelock knee by persona x moderation mode").Write(&b); err != nil {
		return nil, err
	}
	fmt.Fprintln(&b)
	if err := figures.FrontierKneeChart(&b, "Knee chart (offered load each persona sustains)", fs); err != nil {
		return nil, err
	}
	fmt.Fprintln(&b)
	if err := figures.FrontierProbeTable(fs, "All probes").Write(&b); err != nil {
		return nil, err
	}
	files["frontier.txt"] = bytes.Clone(b.Bytes())
	for i := range fs {
		b.Reset()
		if err := report.WriteCSV(&b, figures.FrontierCCDFSeries(&fs[i], 0.015625, 128)); err != nil {
			return nil, err
		}
		files[fmt.Sprintf("frontier_%s_%s.csv", campaign.OSSlug(fs[i].OS), fs[i].Mode)] = bytes.Clone(b.Bytes())
	}
	o.end()

	pace := map[string]*core.Result{}
	for _, label := range labels {
		r, err := t.merged(label, 1)
		if err != nil {
			return nil, err
		}
		pace[label] = r
	}
	o = t.tr.start("figures.emit", "", t.root)
	b.Reset()
	if err := figures.PacingTable(labels, pace, "Frame pacing (60 Hz vblank) by persona: idle, under a sustained storm,\n"+
		"and under the games stress workload").Write(&b); err != nil {
		return nil, err
	}
	files["pacing.txt"] = bytes.Clone(b.Bytes())
	for _, label := range labels {
		b.Reset()
		if err := report.WriteCSV(&b, figures.PacingSeries(pace[label], 0.015625, 128)); err != nil {
			return nil, err
		}
		files[strings.ReplaceAll(label, "/", "_")+".csv"] = bytes.Clone(b.Bytes())
	}
	o.end()
	if err := t.run.Wait(); err != nil {
		return nil, err
	}

	probes := map[string][2]int64{}
	for _, s := range t.tr.snapshot() {
		if s.Name != "core.run" || !strings.HasPrefix(s.Req, "storm/") {
			continue
		}
		key := s.Req[:strings.LastIndexByte(s.Req, '/')]
		p, ok := probes[key]
		if !ok {
			p = [2]int64{s.Start, s.End}
		}
		probes[key] = [2]int64{min(p[0], s.Start), max(p[1], s.End)}
	}
	var probeMS []float64
	for _, p := range probes {
		probeMS = append(probeMS, float64(p[1]-p[0])/1e6)
	}
	layers["frontier.probes"] = float64(t.reg.Counter(frontier.MetricProbes).Value())
	layers["frontier.probe_ms_p50"] = median(probeMS)
	outFiles := map[string][]byte{}
	for name, data := range files {
		outFiles[filepath.Join("out", name)] = data
	}
	return outFiles, nil
}

// notExercised sets to 0 every per-layer metric not yet measured whose
// name starts with one of prefixes: layers this workload does not run.
func notExercised(m metrics, prefixes ...string) {
	for _, d := range perLayer {
		if _, ok := m[d.Name]; ok {
			continue
		}
		for _, p := range prefixes {
			if strings.HasPrefix(d.Name, p) {
				m[d.Name] = 0
			}
		}
	}
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
