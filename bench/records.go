package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"wdmlat/internal/core"
	"wdmlat/internal/ospersona"
	"wdmlat/internal/workload"
)

// record is one of the two published-record workloads: a binary run with
// the exact flags that produced a committed record under results/.
type record struct {
	name   string
	seed   uint64 // the committed record's seed
	binary string
	// files reports whether a results/ file belongs to this record.
	files func(name string) bool
	// duration and runs are the virtual collection per cell and the
	// replicas per cell, full size and in -quick mode.
	duration, quickDuration time.Duration
	runs, quickRuns         int
	// cells counts the core.Run cells a finished run executed.
	cells func(dir string, runs int) (int, error)
	// check verifies the orderings a run's artifacts must show at any
	// seed; checkQuick says whether they still resolve at -quick size.
	check      func(dir string, runs int) []string
	checkQuick bool
}

var records = map[string]*record{
	"paper-record": {
		name: "paper-record", seed: 3,
		binary:   "reproduce",
		files:    func(n string) bool { return !isStormFile(n) && n != "README.md" },
		duration: 30 * time.Minute, quickDuration: 10 * time.Second,
		runs: 3, quickRuns: 1,
		// The default matrix, the virus-scanner cell's replicas, and the
		// single cause-tool cell (cmd/reproduce).
		cells: func(_ string, runs int) (int, error) { return 2*len(workload.Classes)*runs + runs + 1, nil },
		check: checkPaperOrderings,
	},
	"storm-record": {
		name: "storm-record", seed: 7,
		binary:   "stormsweep",
		files:    isStormFile,
		duration: 60 * time.Second, quickDuration: 2 * time.Second,
		runs: 3, quickRuns: 2,
		cells: stormCells,
		check: checkStormOrderings, checkQuick: true,
	},
}

// isStormFile reports whether a results/ file is stormsweep's.
func isStormFile(n string) bool {
	return strings.HasPrefix(n, "frontier") || strings.HasPrefix(n, "pace_") || n == "pacing.txt"
}

func (r *record) geometry(quick bool) (time.Duration, int) {
	if quick {
		return r.quickDuration, r.quickRuns
	}
	return r.duration, r.runs
}

// args are the binary's flags: those of the committed record (results/
// README.md), with the baseline machine's worker count and the run's
// seed and output paths.
func (r *record) args(seed uint64, quick bool, dir string) []string {
	d, runs := r.geometry(quick)
	a := []string{"-duration", d.String(), "-runs", strconv.Itoa(runs), "-jobs", strconv.Itoa(simJobs),
		"-seed", strconv.FormatUint(seed, 10), "-outdir", filepath.Join(dir, "out")}
	if r.binary == "reproduce" {
		a = append(a, "-encode", filepath.Join(dir, "cells.enc"))
	}
	return a
}

func needsBinaries(names []string) bool {
	for _, w := range names {
		if records[w] != nil {
			return true
		}
	}
	return false
}

// buildBinaries builds the record binaries once per invocation, untimed.
func buildBinaries(e *env) error {
	cmd := exec.Command("go", "build", "-o", filepath.Join(e.work, "bin")+string(os.PathSeparator), "./cmd/reproduce", "./cmd/stormsweep")
	cmd.Dir = e.root
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building the record binaries: %w", err)
	}
	return nil
}

// runRecord runs whole records until the run has lasted -seconds (at
// least one), checking each, and measures set-up by launching the binary
// setupRepeats times until its first line of output.
func runRecord(ctx context.Context, e *env, r *record, seed uint64, tmp string) (*runResult, error) {
	bin := filepath.Join(e.work, "bin", r.binary)
	var setups []float64
	// Half the launches precede the records and half follow them, so a
	// burst of load from outside the benchmark skews only some of them.
	launch := func(n int) error {
		for i := 0; i < n; i++ {
			d, err := firstLine(ctx, bin, r.args(seed, e.quick, filepath.Join(tmp, fmt.Sprintf("setup-%d", len(setups)))))
			if err != nil {
				return err
			}
			setups = append(setups, d.Seconds())
		}
		return nil
	}
	if err := launch(setupRepeats / 2); err != nil {
		return nil, err
	}

	d, runs := r.geometry(e.quick)
	res := &runResult{Workload: r.name, Seed: seed, Correct: true, Metrics: metrics{}}
	var walls, cpus, rates []float64
	var rss float64
	begin := time.Now()
	for len(walls) == 0 || time.Since(begin).Seconds() < e.seconds {
		dir := filepath.Join(tmp, "record")
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		var stderr bytes.Buffer
		cmd := exec.CommandContext(ctx, bin, r.args(seed, e.quick, dir)...)
		cmd.Stdout = io.Discard
		cmd.Stderr = &stderr
		start := time.Now()
		err := cmd.Run()
		wall := time.Since(start)
		res.Attempted++
		if err != nil {
			res.Failed++
			res.problem("%s: %v: %s", r.binary, err, lastLine(stderr.String()))
			break
		}
		ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
		cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		walls = append(walls, wall.Seconds())
		cpus = append(cpus, cpu.Seconds())
		rss = max(rss, maxRSSMB(ru))
		n, err := r.cells(filepath.Join(dir, "out"), runs)
		if err != nil {
			res.problem("counting cells: %v", err)
			break
		}
		rates = append(rates, float64(n)*(d+defaultWarmup).Seconds()/cpu.Seconds())
		for _, p := range checkRecord(e, r, seed, dir) {
			res.problem("%s", p)
		}
	}
	if len(walls) == 0 {
		return res, nil
	}
	if err := launch(setupRepeats - setupRepeats/2); err != nil {
		return nil, err
	}
	res.Wall = median(append([]float64(nil), walls...))
	res.Metrics = metrics{
		"setup_s":     median(setups),
		"wall_s":      res.Wall,
		"cpu_s":       median(cpus),
		"peak_rss_mb": rss,
		"sim_rate":    median(rates),
	}
	return res, nil
}

// defaultWarmup is core.RunConfig's default warm-up, simulated before
// every cell's collection window.
var defaultWarmup = core.RunConfig{}.Normalized().Warmup

// firstLine times a launch of bin until its first line of standard output
// — printed once flags are parsed and the campaign is set up, before any
// simulation result exists — then kills it.
func firstLine(ctx context.Context, bin string, args []string) (time.Duration, error) {
	cmd := exec.CommandContext(ctx, bin, args...)
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	_, readErr := bufio.NewReader(out).ReadString('\n')
	d := time.Since(start)
	_ = cmd.Process.Kill() // it has shown it is ready; the rest of its run is not measured
	_ = cmd.Wait()         // killed on purpose, so its exit status says nothing
	if readErr != nil {
		return 0, fmt.Errorf("%s printed no line: %w", filepath.Base(bin), readErr)
	}
	return d, nil
}

// checkRecord verifies a finished record run. At the record's own seed
// and full size its artifacts must equal results/ byte for byte, and at
// every seed the orderings the root conformance tests pin must hold (the
// paper's need the full record's collection time to resolve).
func checkRecord(e *env, r *record, seed uint64, dir string) []string {
	out := filepath.Join(dir, "out")
	_, runs := r.geometry(e.quick)
	var problems []string
	if seed == r.seed && !e.quick {
		problems = append(problems, compareWithResults(e.root, out, r.files)...)
	}
	if !e.quick || r.checkQuick {
		problems = append(problems, r.check(dir, runs)...)
	}
	return problems
}

// compareWithResults diffs the record's files in results/ against dir.
func compareWithResults(root, dir string, mine func(string) bool) []string {
	ents, err := os.ReadDir(filepath.Join(root, "results"))
	if err != nil {
		return []string{err.Error()}
	}
	var problems []string
	for _, ent := range ents {
		if !mine(ent.Name()) {
			continue
		}
		want, err := os.ReadFile(filepath.Join(root, "results", ent.Name()))
		if err != nil {
			problems = append(problems, err.Error())
			continue
		}
		got, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			problems = append(problems, err.Error())
			continue
		}
		if !bytes.Equal(got, want) {
			problems = append(problems, fmt.Sprintf("%s differs from results/%s", ent.Name(), ent.Name()))
		}
	}
	return problems
}

// checkPaperOrderings decodes the -encode stream (the default matrix's
// replica cells), pools each OS × class cell, and checks the paper's
// orderings the way conformance_test.go states them.
func checkPaperOrderings(dir string, runs int) []string {
	data, err := os.ReadFile(filepath.Join(dir, "cells.enc"))
	if err != nil {
		return []string{err.Error()}
	}
	docs, err := decodeStream(data)
	if err != nil {
		return []string{err.Error()}
	}
	if want := len(personas) * len(workload.Classes) * runs; len(docs) != want {
		return []string{fmt.Sprintf("encode stream has %d cells, want %d", len(docs), want)}
	}
	type worst struct{ dpc, t28, t24, hw float64 }
	at := map[ospersona.OS]map[workload.Class]worst{}
	i := 0
	for _, o := range personas {
		at[o] = map[workload.Class]worst{}
		for _, c := range workload.Classes {
			pooled := docs[i].Clone()
			for _, r := range docs[i+1 : i+runs] {
				pooled.Merge(r)
			}
			i += runs
			p := pooled
			at[o][c] = worst{
				dpc: p.Freq.Millis(p.DpcInt.Max()),
				t28: p.Freq.Millis(p.Thread[p.HighPriority()].Max()),
				t24: p.Freq.Millis(p.Thread[p.MediumPriority()].Max()),
				hw:  p.Freq.Millis(p.HwToThread[p.HighPriority()].Max()),
			}
		}
	}
	var problems []string
	nt, w98 := at[ospersona.NT4], at[ospersona.Win98]
	g := workload.Games
	if w98[g].dpc < 2*nt[g].dpc {
		problems = append(problems, fmt.Sprintf("games: Win98 DPC worst %.2f ms not >> NT's %.2f ms", w98[g].dpc, nt[g].dpc))
	}
	if w98[g].hw < 3*w98[g].dpc {
		problems = append(problems, fmt.Sprintf("games: Win98 RT-thread worst %.2f ms not >> its DPC worst %.2f ms", w98[g].hw, w98[g].dpc))
	}
	for _, c := range workload.Classes {
		if nt[c].dpc >= 3 || nt[c].t28 >= 3 {
			problems = append(problems, fmt.Sprintf("%v: NT worst case %.2f/%.2f ms not below the 3 ms modem slack", c, nt[c].dpc, nt[c].t28))
		}
		if w98[c].dpc < nt[c].dpc || w98[c].hw < w98[c].dpc {
			problems = append(problems, fmt.Sprintf("%v: Win98 service levels undercut the expected ordering", c))
		}
		if nt[c].t24 < 5*nt[c].t28 {
			problems = append(problems, fmt.Sprintf("%v: NT RT-24 worst %.2f ms not ~10x RT-28's %.2f ms", c, nt[c].t24, nt[c].t28))
		}
	}
	return problems
}

// decodeStream splits a result stream (one codec document per line) into
// results.
func decodeStream(data []byte) ([]*core.Result, error) {
	var out []*core.Result
	for _, line := range bytes.SplitAfter(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		r, err := core.DecodeResult(bytes.NewReader(line))
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// kneeRow is one track of frontier.txt's knee table.
type kneeRow struct {
	track  string
	knee   string
	probes int
}

func kneeTable(dir string) ([]kneeRow, error) {
	data, err := os.ReadFile(filepath.Join(dir, "frontier.txt"))
	if err != nil {
		return nil, err
	}
	var rows []kneeRow
	for _, line := range strings.Split(string(data), "\n")[3:] {
		if strings.TrimSpace(line) == "" {
			break
		}
		// "nt4/per-assert    60096 pps   8       r65536 [cpu]"
		f := strings.Fields(line)
		if len(f) < 4 {
			return nil, fmt.Errorf("frontier.txt: unreadable knee row %q", line)
		}
		n, err := strconv.Atoi(f[3])
		if err != nil {
			return nil, fmt.Errorf("frontier.txt: probe count in %q: %w", line, err)
		}
		rows = append(rows, kneeRow{track: f[0], knee: f[1], probes: n})
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("frontier.txt has no knee rows")
	}
	return rows, nil
}

// stormCells counts the probes' replica cells from the knee table, plus
// the six single-replica frame-pacing cells.
func stormCells(dir string, runs int) (int, error) {
	rows, err := kneeTable(dir)
	if err != nil {
		return 0, err
	}
	n := 6
	for _, r := range rows {
		n += r.probes * runs
	}
	return n, nil
}

// checkStormOrderings checks what frontier_shape_test.go pins: every track
// saturates inside the sweep, and Windows 98 collapses strictly before NT
// in every moderation mode; and every pacing cell presented frames.
func checkStormOrderings(dir string, _ int) []string {
	out := filepath.Join(dir, "out")
	rows, err := kneeTable(out)
	if err != nil {
		return []string{err.Error()}
	}
	var problems []string
	knee := map[string]float64{}
	for _, r := range rows {
		v, err := strconv.ParseFloat(r.knee, 64)
		if err != nil || v == 0 {
			problems = append(problems, fmt.Sprintf("track %s: knee %q is censored or below the floor", r.track, r.knee))
			continue
		}
		knee[r.track] = v
	}
	for track, v := range knee {
		if mode, ok := strings.CutPrefix(track, "nt4/"); ok {
			if w, ok := knee["win98/"+mode]; ok && w >= v {
				problems = append(problems, fmt.Sprintf("%s: Win98 knee %.0f not below NT4's %.0f", mode, w, v))
			}
		}
	}
	data, err := os.ReadFile(filepath.Join(out, "pacing.txt"))
	if err != nil {
		return append(problems, err.Error())
	}
	rowsSeen := 0
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || !strings.HasPrefix(f[0], "pace/") {
			continue
		}
		rowsSeen++
		if f[3] == "0" {
			problems = append(problems, fmt.Sprintf("pacing cell %s presented no frames", f[0]))
		}
	}
	if rowsSeen != 6 {
		problems = append(problems, fmt.Sprintf("pacing.txt has %d cells, want 6", rowsSeen))
	}
	return problems
}

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		return s[i+1:]
	}
	return s
}
