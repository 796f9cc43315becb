// Command bench is the repository's end-to-end benchmark. It runs named
// workloads against the simulator and its campaign service from the
// outside — the published binaries as subprocesses, the service behind a
// real loopback listener, the client and fleet worker as a user would run
// them — checks that every output is correct, and reports end-to-end
// metrics, or with -trace 1 the per-layer breakdown from a separate traced
// run. See README.md for the workloads, the metrics, and how to compare
// two commits.
//
// Run it from the repository root:
//
//	bash bench/run.sh [-workload all|NAME[,NAME]] [-seed S] [-seconds N]
//	                  [-trace 0|1] [-repeat N] [-quick] [-out DIR]
//
// Every metric prints as "<workload> <metric> <median> <unit> q1=… q3=…
// n=…" over the repeats. When one workload runs, the last line is a JSON
// object {"correct", "attempted", "failed", "metrics"} of the medians.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

const (
	// simJobs is the simulation worker count of every workload: the
	// baseline machine has 2 vCPUs.
	simJobs = 2
	// setupRepeats is how many times each run measures set-up; it reports
	// the median.
	setupRepeats = 31
	// runBudget bounds one run of one workload, traced run included; a run
	// that overruns is killed and reported as failed.
	runBudget = 170 * time.Second
	// childEnv carries a child process's arguments: in-process workloads
	// run in a re-executed copy of this binary, so CPU time, peak memory
	// and garbage-collector state belong to one workload.
	childEnv = "WDMLAT_BENCH_CHILD"
)

// workloads, in the order a run of all of them visits them.
var workloads = []string{"paper-record", "storm-record", "service-overlap", "fleet-shard"}

// runResult is one run of one workload.
type runResult struct {
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	Correct   bool     `json:"correct"`
	Problems  []string `json:"problems,omitempty"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Metrics   metrics  `json:"metrics"`
	// Wall is the run's headline time in seconds (the wall_s metric of an
	// untraced run, the same quantity measured with tracing on in a traced
	// one); trace.overhead_frac compares the two.
	Wall float64 `json:"wall"`
}

func (r *runResult) problem(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// childArgs are a child process's instructions.
type childArgs struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Quick    bool    `json:"quick"`
	Trace    bool    `json:"trace"`
	Tmp      string  `json:"tmp"`
	// Ref is the untraced run's output a traced record run must reproduce.
	Ref string `json:"ref,omitempty"`
	// TraceOut is where a traced child writes its spans.
	TraceOut string `json:"trace_out,omitempty"`
}

// env is what every run of one invocation shares.
type env struct {
	root    string // repository root
	work    string // .bench_build under the root
	out     string
	seconds float64
	quick   bool
	self    string // this executable, re-executed for child runs
}

func main() {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec))
	}
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	sel := fs.String("workload", "all", "workloads to run: all, or a comma-separated list of "+strings.Join(workloads, ", "))
	seed := fs.Uint64("seed", 0, "benchmark seed (default: each workload's own; 3 and 7 are the committed records' seeds)")
	seconds := fs.Float64("seconds", 10, "measurement window of the service workloads; a record run measures whole records until it has run this long")
	trace := fs.Int("trace", 0, "1: report the per-layer metrics of an extra traced run instead of the end-to-end metrics")
	repeat := fs.Int("repeat", 1, "runs per workload, round-robin across workloads")
	quick := fs.Bool("quick", false, "scaled-down workloads for a fast smoke run (default -seconds 5); skips the comparison with results/")
	out := fs.String("out", "", "directory for summary.json and trace files (default .bench_build/out)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if *quick && !set["seconds"] {
		*seconds = 5
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	if *repeat < 1 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -repeat and -seconds must be positive")
		return 2
	}
	names, err := selectWorkloads(*sel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	e, err := newEnv(*out, *seconds, *quick)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if needsBinaries(names) {
		if err := buildBinaries(e); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}

	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	results := map[string][]*runResult{}
	for i := 0; i < *repeat; i++ {
		for _, w := range names {
			s := defaultSeed(w)
			if set["seed"] {
				s = *seed
			}
			res := runOne(e, w, s, *trace == 1)
			if res.Correct {
				if err := res.Metrics.complete(defs); err != nil {
					res.problem("%v", err)
				}
			}
			for _, p := range res.Problems {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: %s\n", w, s, p)
			}
			results[w] = append(results[w], res)
		}
	}
	return summarize(stdout, e, names, results, defs)
}

func selectWorkloads(sel string) ([]string, error) {
	if sel == "all" {
		return workloads, nil
	}
	var out []string
	for _, w := range strings.Split(sel, ",") {
		if defaultSeed(w) == 0 {
			return nil, fmt.Errorf("unknown workload %q (want %s)", w, strings.Join(workloads, ", "))
		}
		out = append(out, w)
	}
	return out, nil
}

// defaultSeed is each workload's own seed: the committed records' seeds for
// the record workloads. Zero means no such workload.
func defaultSeed(w string) uint64 {
	if r, ok := records[w]; ok {
		return r.seed
	}
	if w == "service-overlap" || w == "fleet-shard" {
		return 1
	}
	return 0
}

func newEnv(out string, seconds float64, quick bool) (*env, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for _, f := range []string{"go.mod", "cmd/reproduce/main.go", "cmd/stormsweep/main.go", "results/README.md"} {
		if _, err := os.Stat(filepath.Join(root, f)); err != nil {
			return nil, fmt.Errorf("run from the repository root: %w", err)
		}
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	e := &env{root: root, work: filepath.Join(root, ".bench_build"), out: out, seconds: seconds, quick: quick, self: self}
	if e.out == "" {
		e.out = filepath.Join(e.work, "out")
	}
	for _, d := range []string{e.out, filepath.Join(e.work, "tmp"), filepath.Join(e.work, "bin")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// runOne runs workload w once; traced, it runs it untraced first and then
// traced, and reports the traced run's per-layer metrics.
func runOne(e *env, w string, seed uint64, traced bool) *runResult {
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	tmp, err := os.MkdirTemp(filepath.Join(e.work, "tmp"), w+"-")
	if err != nil {
		return failed(w, seed, err)
	}
	defer os.RemoveAll(tmp)

	base, err := untraced(ctx, e, w, seed, tmp)
	if err != nil {
		return failed(w, seed, err)
	}
	if !traced {
		return base
	}
	a := childArgs{Workload: w, Seed: seed, Seconds: e.seconds, Quick: e.quick, Trace: true,
		Tmp: filepath.Join(tmp, "traced"), Ref: filepath.Join(tmp, "record"),
		TraceOut: filepath.Join(e.out, "trace-"+w+".json")}
	tr, _, err := runChild(ctx, e, a)
	if err != nil {
		return failed(w, seed, err)
	}
	if base.Wall > 0 && tr.Wall > 0 {
		tr.Metrics["trace.overhead_frac"] = tr.Wall/base.Wall - 1
	}
	tr.Attempted += base.Attempted
	tr.Failed += base.Failed
	if !base.Correct {
		tr.Correct = false
		tr.Problems = append(base.Problems, tr.Problems...)
	}
	return tr
}

// untraced runs a workload with tracing off: the record workloads as the
// published binaries, the service workloads in a child process. A record
// run leaves its output under tmp/record for the traced run to compare.
func untraced(ctx context.Context, e *env, w string, seed uint64, tmp string) (*runResult, error) {
	if rec, ok := records[w]; ok {
		return runRecord(ctx, e, rec, seed, tmp)
	}
	a := childArgs{Workload: w, Seed: seed, Seconds: e.seconds, Quick: e.quick, Tmp: filepath.Join(tmp, "child")}
	res, ru, err := runChild(ctx, e, a)
	if err != nil {
		return nil, err
	}
	res.Metrics["peak_rss_mb"] = maxRSSMB(ru)
	return res, nil
}

func failed(w string, seed uint64, err error) *runResult {
	r := &runResult{Workload: w, Seed: seed, Attempted: 1, Failed: 1, Metrics: metrics{}}
	r.problem("%v", err)
	return r
}

// runChild re-executes this binary as a child running one in-process
// workload and returns its result and resource usage.
func runChild(ctx context.Context, e *env, a childArgs) (*runResult, *syscall.Rusage, error) {
	spec, err := json.Marshal(a)
	if err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(a.Tmp, 0o755); err != nil {
		return nil, nil, err
	}
	var stdout bytes.Buffer
	cmd := exec.CommandContext(ctx, e.self)
	cmd.Env = append(os.Environ(), childEnv+"="+string(spec))
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	if cmd.ProcessState == nil {
		return nil, nil, fmt.Errorf("%s child: %w", a.Workload, runErr)
	}
	ru, _ := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	var res runResult
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, nil, fmt.Errorf("%s child: %v (no result: %v)", a.Workload, runErr, err)
	}
	if res.Metrics == nil {
		res.Metrics = metrics{}
	}
	if runErr != nil {
		res.problem("child exited: %v", runErr)
	}
	return &res, ru, nil
}

// childMain runs one in-process workload and prints its result as JSON.
func childMain(spec string) int {
	var a childArgs
	if err := json.Unmarshal([]byte(spec), &a); err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 1
	}
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	var res *runResult
	var err error
	switch {
	case a.Workload == "service-overlap":
		res, err = runService(ctx, a)
	case a.Workload == "fleet-shard":
		res, err = runFleet(ctx, a)
	case records[a.Workload] != nil && a.Trace:
		res, err = runTracedRecord(ctx, records[a.Workload], a)
	default:
		err = fmt.Errorf("no in-process run for workload %q", a.Workload)
	}
	if err != nil {
		res = failed(a.Workload, a.Seed, err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 1
	}
	fmt.Println(string(data))
	return 0
}

func maxRSSMB(ru *syscall.Rusage) float64 {
	if ru == nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

type summaryRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Median   float64   `json:"median"`
	Q1       float64   `json:"q1"`
	Q3       float64   `json:"q3"`
	Values   []float64 `json:"values"`
}

// summarize prints every metric's median and quartiles over the repeats,
// writes them to summary.json, and — when one workload ran — ends with the
// JSON result line. It returns the exit code: nonzero if any run was wrong.
func summarize(stdout io.Writer, e *env, names []string, results map[string][]*runResult, defs []metricDef) int {
	var rows []summaryRow
	code := 0
	for _, w := range names {
		for _, r := range results[w] {
			if !r.Correct {
				code = 1
			}
		}
		for _, d := range defs {
			var vals []float64
			for _, r := range results[w] {
				if v, ok := r.Metrics[d.Name]; ok {
					vals = append(vals, v)
				}
			}
			if len(vals) == 0 {
				continue
			}
			q1, q3 := quartiles(vals)
			row := summaryRow{Workload: w, Metric: d.Name, Unit: d.Unit, Median: median(append([]float64(nil), vals...)), Q1: q1, Q3: q3, Values: vals}
			rows = append(rows, row)
			fmt.Fprintf(stdout, "%s %s %.6g %s q1=%.6g q3=%.6g n=%d\n", w, d.Name, row.Median, d.Unit, q1, q3, len(vals))
		}
	}
	if data, err := json.MarshalIndent(rows, "", "  "); err == nil {
		if err := os.WriteFile(filepath.Join(e.out, "summary.json"), data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			code = 1
		}
	}
	if len(names) != 1 {
		return code
	}
	line, err := resultLine(results[names[0]], defs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	return code
}

// resultLine is the final JSON object: correctness and counts over all
// runs, and each metric's median over them. A run that failed its checks
// may lack metrics; the object then says correct=false.
func resultLine(runs []*runResult, defs []metricDef) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, r := range runs {
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
	}
	for _, d := range defs {
		var vals []float64
		for _, r := range runs {
			if v, ok := r.Metrics[d.Name]; ok {
				vals = append(vals, v)
			}
		}
		if len(vals) > 0 {
			out.Metrics[d.Name] = value{median(vals), d.Unit}
		}
	}
	data, err := json.Marshal(out)
	return string(data), err
}
