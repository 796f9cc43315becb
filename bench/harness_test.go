package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"wdmlat/internal/api"
	"wdmlat/internal/core"
)

func TestMain(m *testing.M) {
	// The quick-mode test re-executes this test binary as a workload child.
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec))
	}
	os.Exit(m.Run())
}

func TestTailHasTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{1, 0.5}, {19, 0.5}, {99, 0.5}, {100, 0.9}, {120, 0.9}, {999, 0.9}, {1000, 0.99}, {10000, 0.999}} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
		if c.want == 0.5 {
			continue
		}
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(c.n - i) // unsorted on purpose
		}
		v := tail(xs)
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < 10 {
			t.Errorf("n=%d: tail %v has %d samples beyond it, want >= 10", c.n, v, beyond)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(data, n=4) for these inputs.
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 8.25},
		{[]float64{5, 5}, 5, 5},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// fakeClock sleeps by jumping to the wake-up time plus a scripted lag;
// fire may stall it further, as a generator blocked in its own code would.
type fakeClock struct {
	now  time.Time
	lags []time.Duration
}

func (c *fakeClock) Now() time.Time { return c.now }

func (c *fakeClock) SleepUntil(t time.Time) {
	lag := c.lags[0]
	c.lags = c.lags[1:]
	if t.After(c.now) {
		c.now = t
	}
	c.now = c.now.Add(lag)
}

func TestOpenLoopLatenessIsAgainstTheSchedule(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start, lags: []time.Duration{0, 2 * time.Millisecond, 0, 0, time.Millisecond}}
	var dues []time.Duration
	late := openLoop(clk, start, 10, 5, func(i int, due time.Time) {
		dues = append(dues, due.Sub(start))
		if i == 2 {
			clk.now = clk.now.Add(250 * time.Millisecond) // a stall longer than two intervals
		}
	})
	wantDue := []time.Duration{0, 100 * time.Millisecond, 200 * time.Millisecond, 300 * time.Millisecond, 400 * time.Millisecond}
	if !reflect.DeepEqual(dues, wantDue) {
		t.Fatalf("due times %v, want %v: the schedule must not drift after a stall", dues, wantDue)
	}
	// Op 3 was due at 300 ms but the stall held the generator until 450 ms;
	// op 4 was due at 400 ms and, already overdue, started at 451 ms.
	wantLate := []time.Duration{0, 2 * time.Millisecond, 0, 150 * time.Millisecond, 51 * time.Millisecond}
	if !reflect.DeepEqual(late, wantLate) {
		t.Fatalf("lateness %v, want %v", late, wantLate)
	}
}

func TestOpLogCountsFailuresAsMissingTheLimit(t *testing.T) {
	var l opLog
	for i := 0; i < 9; i++ {
		l.ok(time.Millisecond)
	}
	l.fail()
	if p90 := quantile(l.latencies(), 0.9); p90 != 1 {
		t.Fatalf("p90 with 1 failure in 10 = %v, want 1 ms", p90)
	}
	l.fail()
	if p90 := quantile(l.latencies(), 0.9); !math.IsInf(p90, 1) {
		t.Fatalf("p90 with 2 failures in 11 = %v, want +Inf", p90)
	}
}

func TestFindMaxRateOnASyntheticCurve(t *testing.T) {
	const knee = 57.0
	var probed []float64
	check := func(rate float64) bool {
		probed = append(probed, rate)
		return rate < knee // latency explodes past the knee
	}
	got := findMaxRate(check, 12, 1.5, 200, 2)
	// Ascent 12, 18, 27, 40.5 pass and 60.75 fails; bisection tries
	// sqrt(40.5*60.75) = 49.6 (pass), then sqrt(49.6*60.75) = 54.9 (pass).
	if want := math.Sqrt(math.Sqrt(40.5*60.75) * 60.75); math.Abs(got-want) > 1e-9 {
		t.Fatalf("max rate %v, want %v (probed %v)", got, want, probed)
	}
	if got >= knee || got < knee/math.Pow(1.5, 0.25) {
		t.Fatalf("max rate %v not within one bisection step below the knee %v", got, knee)
	}
	if len(probed) != 7 {
		t.Fatalf("probed %v, want 5 ascent steps and 2 bisection steps", probed)
	}

	if got := findMaxRate(func(float64) bool { return false }, 12, 1.5, 200, 2); got != 0 {
		t.Fatalf("failing start rate gave %v, want 0", got)
	}
	if got := findMaxRate(func(float64) bool { return true }, 12, 1.5, 200, 2); math.Abs(got-12*math.Pow(1.5, 6)) > 1e-9 {
		t.Fatalf("curve without a knee gave %v, want the last rate under the ceiling", got)
	}
}

func TestSelfTimeSubtractsChildCoverageOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "gen.campaign", Req: "c1", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "client.watch", Req: "c1", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "client.result", Req: "c1", Start: 30, End: 60}, // overlaps 2
		{ID: 4, Parent: 2, Name: "server.events", Req: "c1", Start: 15, End: 20},
		{ID: 5, Parent: 1, Name: "client.submit", Req: "c1", Start: 90, End: 120}, // runs past its parent
	}
	selfTimes(spans)
	want := map[int]int64{1: 100 - 50 - 10, 2: 30 - 5, 3: 30, 4: 5, 5: 30}
	for _, s := range spans {
		if s.Self != want[s.ID] {
			t.Errorf("span %d (%s): self %d, want %d", s.ID, s.Name, s.Self, want[s.ID])
		}
	}
	shares := selfShares(spans)
	if got := shares["client"]; math.Abs(got-85.0/130) > 1e-12 {
		t.Errorf("client share %v, want 85/130", got)
	}
}

func TestLinkAttachesOrphansToTheInnermostOuterSpan(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "gen.campaign", Req: "a", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "client.watch", Req: "a", Start: 10, End: 90},
		{ID: 3, Name: "server.events", Req: "a", Start: 12, End: 80},
		{ID: 4, Name: "core.run", Req: "a", Start: 20, End: 30},
		{ID: 5, Name: "coordinator.lease", Start: 40, End: 41}, // no request: under any outer span
		{ID: 6, Name: "gen.campaign", Req: "b", Start: 0, End: 200},
		{ID: 7, Name: "server.result", Req: "b", Start: 150, End: 160},
	}
	link(spans)
	want := map[int]int{1: 0, 2: 1, 3: 2, 4: 3, 5: 3, 6: 0, 7: 6}
	for _, s := range spans {
		if s.Parent != want[s.ID] {
			t.Errorf("span %d (%s): parent %d, want %d", s.ID, s.Name, s.Parent, want[s.ID])
		}
	}
}

func TestRouteSpanNames(t *testing.T) {
	for _, c := range []struct{ method, path, name, req string }{
		{"POST", "/v1/campaigns", "server.submit", ""},
		{"GET", "/v1/campaigns/abc", "server.status", "abc"},
		{"GET", "/v1/campaigns/abc/events", "server.events", "abc"},
		{"GET", "/v1/campaigns/abc/result", "server.result", "abc"},
		{"POST", "/v1/workers", "coordinator.workers", ""},
		{"POST", "/v1/workers/w1/leases", "coordinator.lease", ""},
		{"POST", "/v1/workers/w1/complete", "coordinator.complete", ""},
		{"POST", "/v1/workers/w1/heartbeat", "coordinator.heartbeat", ""},
		{"GET", "/v1/fleet", "coordinator.fleet", ""},
		{"GET", "/healthz", "server.healthz", ""},
	} {
		name, req := routeSpan(c.method, c.path)
		if name != c.name || req != c.req {
			t.Errorf("%s %s: %q %q, want %q %q", c.method, c.path, name, req, c.name, c.req)
		}
		if layerRank((&span{Name: name}).layer()) >= len(spanLayers) {
			t.Errorf("%s: layer of %q is not a span layer", c.path, name)
		}
	}
}

// The names and units a regression gate accepts.
var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %s", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("%s name %q used twice", kind, name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check("workload", w)
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			check("metric", d.Name)
			if !unitRE.MatchString(d.Unit) {
				t.Errorf("metric %s: unit %q does not match %s", d.Name, d.Unit, unitRE)
			}
			if d.Better != "higher" && d.Better != "lower" {
				t.Errorf("metric %s: better %q", d.Name, d.Better)
			}
		}
	}
	for _, l := range spanLayers {
		if !seen["self."+l+"_frac"] {
			t.Errorf("span layer %s has no self-time metric", l)
		}
	}
}

// TestBenchmarkJSONListsWhatTheCodeEmits pins BENCHMARK.json to the
// workloads and metric definitions above; metrics.complete makes every run
// emit exactly those.
func TestBenchmarkJSONListsWhatTheCodeEmits(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range raw {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("BENCHMARK.json keys %v, want %v", keys, want)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Paths, []string{"bench"}) {
		t.Errorf("paths %v", b.Paths)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("workloads %v, code runs %v", names, workloads)
	}
	var e2e []metricDef
	largest, setup := 0.0, 0.0
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		largest = max(largest, m.Bound)
		if m.Name == "setup_s" {
			setup = m.Bound
		}
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end %v, code emits %v", e2e, endToEnd)
	}
	if setup != largest {
		t.Errorf("setup_s bound %v is not the largest (%v)", setup, largest)
	}
	var layers []metricDef
	for _, m := range b.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit, m.Better})
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("per_layer differs from the code's definitions")
	}
}

func TestCompleteRejectsMissingAndUnknownMetrics(t *testing.T) {
	m := metrics{}
	for _, d := range endToEnd {
		m[d.Name] = 1
	}
	if err := m.complete(endToEnd); err != nil {
		t.Fatal(err)
	}
	m["bogus"] = 1
	if m.complete(endToEnd) == nil {
		t.Fatal("unknown metric accepted")
	}
	delete(m, "bogus")
	delete(m, "wall_s")
	if m.complete(endToEnd) == nil {
		t.Fatal("missing metric accepted")
	}
}

// TestQuickRunsEveryWorkload runs the whole benchmark scaled down, from
// the repository root, with every correctness check but the comparison
// against results/.
func TestQuickRunsEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for several seconds")
	}
	if raceEnabled {
		t.Skip("the race detector slows the service below its offered load; the other tests cover the harness under -race")
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir("bench")
	var out bytes.Buffer
	start := time.Now()
	code := run([]string{"-quick", "-out", t.TempDir()}, &out)
	t.Logf("quick run took %v:\n%s", time.Since(start), out.String())
	if code != 0 {
		t.Fatalf("quick run exited %d", code)
	}
	for _, w := range workloads {
		for _, d := range endToEnd {
			if !bytes.Contains(out.Bytes(), []byte(w+" "+d.Name+" ")) {
				t.Errorf("no %s line for %s", d.Name, w)
			}
		}
	}
}

// TestServiceMixResubmitsFinishedCampaigns pins the mix's order: each
// cycle's cold campaign is followed by a resubmission, which never reaches
// the campaign runner, of a campaign sent at least five slots earlier (the
// warm-up campaign for the first cycle), and the store-read campaigns have
// ids never sent before.
func TestServiceMixResubmitsFinishedCampaigns(t *testing.T) {
	mix := newServiceMix(9)
	warm := api.CampaignID(mix.warmup())
	specs := mix.take(40)
	sent := map[string]int{warm: -1}
	for i, spec := range specs {
		id := api.CampaignID(spec)
		prev, seen := sent[id]
		switch i % 4 {
		case 0:
			cold := 0
			for _, c := range spec.Cells {
				if strings.HasPrefix(c.Key, "cold/") {
					cold++
				}
			}
			if cold != 1 || seen {
				t.Errorf("campaign %d: %d never-seen cells (want 1), repeat of %d: %v", i, cold, prev, seen)
			}
		case 1:
			switch {
			case !seen:
				t.Errorf("campaign %d: resubmission of a campaign never sent", i)
			case i < 5 && prev != -1:
				t.Errorf("campaign %d resubmits campaign %d, want the warm-up", i, prev)
			case i >= 5 && prev > i-5:
				t.Errorf("campaign %d resubmits campaign %d, sent fewer than five slots before", i, prev)
			}
		default:
			if seen {
				t.Errorf("campaign %d: store-read campaign repeats campaign %d", i, prev)
			}
		}
		if _, ok := sent[id]; !ok {
			sent[id] = i
		}
	}
}

func TestRecordFilesPartitionResults(t *testing.T) {
	ents, err := os.ReadDir("../results")
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		paper, storm := records["paper-record"].files(ent.Name()), records["storm-record"].files(ent.Name())
		if ent.Name() == "README.md" {
			if paper || storm {
				t.Errorf("README.md claimed by a record")
			}
			continue
		}
		if paper == storm {
			t.Errorf("%s: paper=%v storm=%v, want exactly one record", ent.Name(), paper, storm)
		}
	}
}

// TestServiceAndFleetWiring drives both in-process services through the
// generator with tracing on, from many goroutines at once — the paths a
// -race run must see — using cells shortened to milliseconds.
func TestServiceAndFleetWiring(t *testing.T) {
	fast := func(cfg core.RunConfig) *core.Result {
		short := cfg
		short.Duration, short.Warmup = 20*time.Millisecond, 10*time.Millisecond
		res := core.Run(short)
		res.Config = cfg.Normalized() // what core.Run(cfg) would embed, so fleet validation accepts it
		return res
	}
	ctx := context.Background()
	for _, fleet := range []bool{false, true} {
		tr := newTracer()
		execute := func(cfg core.RunConfig) *core.Result {
			o := tr.start("core.run", "", 0)
			defer o.end()
			return fast(cfg)
		}
		s, _, err := startSvc(ctx, t.TempDir(), svcConfig{fleet: fleet, tr: tr, execute: execute})
		if err != nil {
			t.Fatal(err)
		}
		gen := newGenerator(s.url, tr, &sync.Map{})
		mix := newServiceMix(5)
		if _, _, err := runCampaign(ctx, gen.c, tr, 0, mix.warmup(), nil); err != nil {
			t.Fatal(err)
		}
		specs := mix.take(24)
		ph := gen.run(ctx, specs, 40)
		if err := s.close(); err != nil {
			t.Errorf("fleet=%v: close: %v", fleet, err)
		}
		if ph.log.failures != 0 {
			t.Errorf("fleet=%v: %d campaigns failed", fleet, ph.log.failures)
		}
		for i, data := range ph.results {
			if n := bytes.Count(data, []byte("\n")); n != len(specs[i].Cells) {
				t.Errorf("fleet=%v: campaign %d returned %d documents for %d cells", fleet, i, n, len(specs[i].Cells))
			}
		}
		names := map[string]int{}
		for _, sp := range tr.snapshot() {
			names[sp.Name]++
		}
		for _, want := range []string{"gen.campaign", "client.submit", "server.submit", "core.run"} {
			if names[want] == 0 {
				t.Errorf("fleet=%v: no %s spans (got %v)", fleet, want, names)
			}
		}
		if fleet && names["coordinator.complete"] == 0 {
			t.Errorf("no coordinator spans (got %v)", names)
		}
	}
}
