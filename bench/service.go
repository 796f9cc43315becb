package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wdmlat/internal/api"
	"wdmlat/internal/campaign"
	"wdmlat/internal/campaign/store"
	"wdmlat/internal/client"
	"wdmlat/internal/core"
	telemetry "wdmlat/internal/metrics"
	"wdmlat/internal/ospersona"
	"wdmlat/internal/server"
	"wdmlat/internal/sim"
	"wdmlat/internal/workload"
)

const (
	// serviceRate is the fixed offered load of service-overlap, in
	// campaigns per second: over a 10 s window that is 120 campaigns, so
	// p90 has at least ten samples beyond it.
	serviceRate = 12.0
	// cpuWindow is how many consecutive campaigns one CPU sample covers:
	// a second of the offered load, three whole cycles of the mix. Samples
	// start cpuOffset campaigns in, between two never-seen cells, so each
	// cold cell's simulation falls inside one sample, not across two.
	cpuWindow = 12
	cpuOffset = 2
	// serviceCell is every service cell's virtual collection time.
	serviceCell = 30 * time.Second
	// The max-rate search's limit: the highest offered rate whose p90
	// latency stays within latencyLimit with no failures, while the
	// generator itself keeps its p90 lateness within lateLimit.
	latencyLimit = 150 * time.Millisecond
	lateLimit    = 20 * time.Millisecond
	rateCeiling  = 200.0
	// generatorConns caps the generator's connections to the service.
	generatorConns = 2
)

// personas are the two systems the paper compares; every workload
// measures both.
var personas = []ospersona.OS{ospersona.NT4, ospersona.Win98}

// serviceMix is the seeded campaign sequence of service-overlap. Every
// fourth campaign is, in turn: one never-seen cell beside three cached
// ones (a cold execute and a store write); an exact resubmission of a
// finished campaign (the dedup path); and two fresh orderings of four
// cached cells (new campaign ids whose cells are all store reads).
//
// The resubmission follows the cold campaign because it never reaches the
// campaign runner: the service runs one campaign at a time, so a store-read
// campaign sent while the cold one still simulates would wait for it, and
// a host that slows the simulation a little would then slow every such
// campaign a lot.
type serviceMix struct {
	base   uint64
	rng    *rand.Rand
	cached []api.CellSpec
	used   map[string]bool
	specs  []*api.CampaignSpec
}

func newServiceMix(seed uint64) *serviceMix {
	m := &serviceMix{base: seed, rng: rand.New(rand.NewSource(int64(seed))), used: map[string]bool{}}
	for _, o := range personas {
		for _, c := range workload.Classes {
			m.cached = append(m.cached, api.CellSpec{
				Key:    campaign.Key("warm", campaign.OSSlug(o), campaign.ClassSlug(c)),
				Config: core.RunConfig{OS: o, Workload: c, Duration: serviceCell},
			})
		}
	}
	return m
}

// warmup is the untimed campaign that puts every cached cell in the store.
func (m *serviceMix) warmup() *api.CampaignSpec {
	return &api.CampaignSpec{BaseSeed: m.base, Cells: m.cached}
}

// take returns the next n campaigns of the sequence.
func (m *serviceMix) take(n int) []*api.CampaignSpec {
	first := len(m.specs)
	for len(m.specs) < first+n {
		m.specs = append(m.specs, m.next(len(m.specs)))
	}
	return m.specs[first:]
}

func (m *serviceMix) next(i int) *api.CampaignSpec {
	var cells []api.CellSpec
	switch i % 4 {
	case 0:
		// Every never-seen cell is Windows 98 under business apps, the
		// class whose simulation cost varies least from seed to seed, so
		// every run simulates the same work and only the seeds differ.
		cold := api.CellSpec{Key: fmt.Sprintf("cold/%d", i), Config: core.RunConfig{
			OS: ospersona.Win98, Workload: workload.Business, Duration: serviceCell,
		}}
		cells = m.pick(3)
		at := m.rng.Intn(len(cells) + 1)
		cells = append(cells[:at], append([]api.CellSpec{cold}, cells[at:]...)...)
	case 1:
		if j := original(i); j >= 0 {
			cells = m.specs[j].Cells
		} else {
			cells = m.cached
		}
	case 2, 3:
		for {
			cells = m.pick(4)
			var k strings.Builder
			for _, c := range cells {
				k.WriteString(c.Key + ",")
			}
			if !m.used[k.String()] {
				m.used[k.String()] = true
				break
			}
		}
	}
	return &api.CampaignSpec{BaseSeed: m.base, Cells: cells}
}

// original is the campaign that campaign i (i%4 == 1) resubmits: the cold
// campaign of the cycle before, long finished; -1 for the first cycle,
// which resubmits the warm-up campaign.
func original(i int) int { return i - 5 }

// pick returns n distinct cached cells in random order.
func (m *serviceMix) pick(n int) []api.CellSpec {
	out := make([]api.CellSpec, n)
	for i, j := range m.rng.Perm(len(m.cached))[:n] {
		out[i] = m.cached[j]
	}
	return out
}

// generator submits campaigns through the typed client, as a user would.
type generator struct {
	c       *client.Client
	tr      *tracer
	retries atomic.Int64
	// reqOf maps a never-seen cell's derived seed to its campaign id, so a
	// traced server-side execution is attributed to its campaign.
	reqOf *sync.Map
}

func newGenerator(url string, tr *tracer, reqOf *sync.Map) *generator {
	g := &generator{tr: tr, reqOf: reqOf}
	g.c = client.New(url, client.Options{
		HTTP: &http.Client{Transport: &http.Transport{MaxConnsPerHost: generatorConns}},
		Sleep: func(ctx context.Context, d time.Duration) error {
			g.retries.Add(1)
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-t.C:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		},
	})
	return g
}

// phase is one open-loop run at a fixed rate.
type phase struct {
	log       opLog
	late      []time.Duration
	results   [][]byte
	fired     []time.Duration // process CPU time when each campaign was sent
	mu        sync.Mutex
	queueWait []time.Duration // submission until the client saw the campaign running
}

// ok reports whether the phase met the service's latency limit.
func (p *phase) ok() bool {
	return p.log.failures == 0 && quantile(p.log.latencies(), 0.9) <= ms(latencyLimit) &&
		quantile(msList(p.late), 0.9) <= ms(lateLimit)
}

// run offers specs at rate and waits for every campaign's result; one that
// has not finished 20 s after the last was due fails.
func (g *generator) run(ctx context.Context, specs []*api.CampaignSpec, rate float64) *phase {
	p := &phase{results: make([][]byte, len(specs)), fired: make([]time.Duration, len(specs))}
	for _, spec := range specs {
		id := api.CampaignID(spec)
		for _, c := range spec.Cells {
			if strings.HasPrefix(c.Key, "cold/") {
				g.reqOf.Store(sim.DeriveSeed(spec.Seed(), c.Key), id)
			}
		}
	}
	window := time.Duration(float64(len(specs))/rate*float64(time.Second)) + 20*time.Second
	pctx, cancel := context.WithTimeout(ctx, window)
	defer cancel()
	var wg sync.WaitGroup
	p.late = openLoop(wallClock{}, time.Now(), rate, len(specs), func(i int, due time.Time) {
		p.fired[i] = cpuTime()
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.op(pctx, p, i, due, specs[i])
		}()
	})
	wg.Wait()
	return p
}

func (g *generator) op(ctx context.Context, p *phase, i int, due time.Time, spec *api.CampaignSpec) {
	root := g.tr.reserve()
	submitted := time.Now()
	var running time.Time
	id, data, err := runCampaign(ctx, g.c, g.tr, root, spec, func(ev api.Event) {
		if ev.Type == api.EventState && ev.State == api.StateRunning {
			running = time.Now()
		}
	})
	done := time.Now()
	g.tr.finish(root, "gen.campaign", id, due, done)
	if err != nil {
		p.log.fail()
		return
	}
	p.log.ok(done.Sub(due))
	p.mu.Lock()
	p.results[i] = data
	if !running.IsZero() {
		p.queueWait = append(p.queueWait, running.Sub(submitted))
	}
	p.mu.Unlock()
}

// cpuPerCampaign splits a phase into windows of w campaigns, the first
// starting at campaign off, and returns each whole window's process CPU
// time per campaign.
func cpuPerCampaign(fired []time.Duration, off, w int) []float64 {
	var out []float64
	for i := off; i+w < len(fired); i += w {
		out = append(out, (fired[i+w]-fired[i]).Seconds()/float64(w))
	}
	return out
}

// serviceCounters are the registry counters a run reads before and after
// its measurement window.
type serviceCounters struct {
	executed, deduped, rejected, reads, misses, redispatched uint64
}

func readCounters(reg *telemetry.Registry) serviceCounters {
	return serviceCounters{
		executed:     reg.Counter(server.MetricCellsExec).Value(),
		deduped:      reg.Counter(server.MetricDeduped).Value(),
		rejected:     reg.Counter(server.MetricRejected).Value(),
		reads:        reg.Counter(store.MetricReads).Value(),
		misses:       reg.Counter(store.MetricFingerprintMiss).Value(),
		redispatched: reg.Counter(server.MetricFleetCellsRedispatched).Value(),
	}
}

func (a serviceCounters) sub(b serviceCounters) serviceCounters {
	return serviceCounters{a.executed - b.executed, a.deduped - b.deduped, a.rejected - b.rejected,
		a.reads - b.reads, a.misses - b.misses, a.redispatched - b.redispatched}
}

// runService is service-overlap: an open loop of 4-cell campaigns at a
// fixed rate against an in-process latserved. Traced, it also searches for
// the highest rate that meets the latency limit.
func runService(ctx context.Context, a childArgs) (*runResult, error) {
	var tr *tracer
	if a.Trace {
		tr = newTracer()
	}
	reqOf := &sync.Map{}
	var sample atomic.Pointer[core.Result]
	var execute func(core.RunConfig) *core.Result
	if tr != nil {
		execute = func(cfg core.RunConfig) *core.Result {
			id, _ := reqOf.Load(cfg.Seed)
			req, _ := id.(string)
			o := tr.start("core.run", req, 0)
			res := core.Run(cfg)
			o.end()
			sample.CompareAndSwap(nil, res)
			return res
		}
	}
	s, moreSetups, err := setupTimes(ctx, a.Tmp, svcConfig{tr: tr, execute: execute})
	if err != nil {
		return nil, err
	}
	gen := newGenerator(s.url, tr, reqOf)
	mix := newServiceMix(a.Seed)
	_, warm, err := runCampaign(ctx, gen.c, nil, 0, mix.warmup(), nil)
	if err != nil {
		s.close()
		return nil, fmt.Errorf("warming the cache: %w", err)
	}

	n := int(math.Round(serviceRate * a.Seconds))
	specs := mix.take(n)
	var watch *runtimeWatch
	if tr != nil {
		watch = watchRuntime()
	}
	before := readCounters(s.reg)
	ph := gen.run(ctx, specs, serviceRate)
	delta := readCounters(s.reg).sub(before)

	res := &runResult{Workload: "service-overlap", Seed: a.Seed, Correct: true, Attempted: n,
		Failed: ph.log.failures + int(delta.rejected)}
	if res.Failed > 0 {
		res.problem("%d of %d campaigns failed or were refused", res.Failed, n)
	}
	for _, p := range checkService(specs, ph, warm) {
		res.problem("%s", p)
	}
	lat := ph.log.latencies()
	res.Wall = finite(median(append([]float64(nil), lat...))) / 1e3
	if tr == nil {
		if err := s.close(); err != nil {
			res.problem("closing the service: %v", err)
		}
		setups, err := moreSetups()
		if err != nil {
			return nil, err
		}
		// The median second's CPU, so a burst of slow memory on a shared
		// host moves one sample, not the result.
		cpu := median(cpuPerCampaign(ph.fired, cpuOffset, cpuWindow))
		simulated := float64(delta.executed) / float64(n) * (serviceCell + defaultWarmup).Seconds()
		res.Metrics = metrics{
			"setup_s":  median(setups),
			"wall_s":   res.Wall,
			"cpu_s":    cpu,
			"sim_rate": simulated / cpu,
		}
		return res, nil
	}

	layers := watch.finish()
	spans := tr.snapshot()
	if err := writeTrace(a.TraceOut, res.Workload, spans); err != nil {
		return nil, err
	}
	layers.add(s.layers(spans, delta, gen, ph.queueWait))
	layers["gen.late_ms_p90"] = quantile(msList(ph.late), 0.9)
	layers["gen.tail_latency_ms"] = finite(tail(lat))

	// The max-rate search continues the same campaign sequence on the same
	// service, so every step still meets never-seen cells.
	stepSize, ceiling := func(rate float64) int { return max(100, int(math.Ceil(2*rate))) }, rateCeiling
	if a.Quick {
		stepSize, ceiling = func(float64) int { return 20 }, 50
	}
	gen.tr = nil
	layers["gen.max_rate"] = findMaxRate(func(rate float64) bool {
		if rate == serviceRate {
			return ph.ok()
		}
		return gen.run(ctx, mix.take(stepSize(rate)), rate).ok()
	}, serviceRate, 1.5, ceiling, 2)

	if err := s.close(); err != nil {
		res.problem("closing the service: %v", err)
	}
	addProbes(res, layers, a.Seed, sample.Load(), a.Tmp)
	notExercised(layers, "coordinator.", "campaign.", "stats.", "figures.", "frontier.", "core.aux_ms")
	res.Metrics = layers
	return res, nil
}

// checkService verifies the phase's result streams: one document per cell;
// a cached cell's document identical in every campaign that holds it; each
// resubmission answered with its original's bytes (warm, the warm-up
// campaign's, for the first); and the first cold campaign byte-identical to
// the same spec run locally.
func checkService(specs []*api.CampaignSpec, ph *phase, warm []byte) []string {
	var problems []string
	docOf := map[string][]byte{}
	for i, spec := range specs {
		data := ph.results[i]
		if data == nil {
			continue // failed; counted as such
		}
		lines := bytes.SplitAfter(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
		if len(lines) != len(spec.Cells) {
			problems = append(problems, fmt.Sprintf("campaign %d: %d result documents for %d cells", i, len(lines), len(spec.Cells)))
			continue
		}
		for j, c := range spec.Cells {
			if prev, ok := docOf[c.Key]; ok && !bytes.Equal(bytes.TrimSuffix(prev, []byte("\n")), bytes.TrimSuffix(lines[j], []byte("\n"))) {
				problems = append(problems, fmt.Sprintf("campaign %d: cell %s differs from an earlier campaign's", i, c.Key))
			}
			docOf[c.Key] = lines[j]
		}
		if i%4 == 1 {
			want := warm
			if j := original(i); j >= 0 {
				want = ph.results[j]
			}
			if want != nil && !bytes.Equal(data, want) {
				problems = append(problems, fmt.Sprintf("campaign %d: resubmission answered with different bytes", i))
			}
		}
	}
	if len(specs) > 0 && ph.results[0] != nil {
		local, err := localResult(specs[0])
		switch {
		case err != nil:
			problems = append(problems, fmt.Sprintf("local run: %v", err))
		case !bytes.Equal(local, ph.results[0]):
			problems = append(problems, "service result differs from the same campaign run locally")
		}
	}
	return problems
}

// localResult runs spec on a local campaign runner and returns the result
// stream the service should have served for it.
func localResult(spec *api.CampaignSpec) ([]byte, error) {
	cells := make([]campaign.Cell, len(spec.Cells))
	for i, c := range spec.Cells {
		cells[i] = campaign.Cell{Key: c.Key, Config: c.Config}
	}
	results, err := campaign.Run(cells, campaign.Options{BaseSeed: spec.Seed(), Jobs: simJobs})
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	for _, r := range results {
		if err := core.EncodeResult(&b, r); err != nil {
			return nil, err
		}
	}
	return b.Bytes(), nil
}
