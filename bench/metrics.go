package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metricDef is one reported metric: its name, unit, and which direction is
// an improvement. BENCHMARK.json lists exactly these (a test pins it).
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the numbers a user of the system waits on or pays for,
// reported by every untraced run of every workload. A "unit of work" is
// one published record (paper-record, storm-record) or one campaign
// (service-overlap, fleet-shard).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},      // launch until ready to take work (median of several set-ups)
	{"wall_s", "s", "lower"},       // median wall time of a unit, from when it was due to its last result byte
	{"cpu_s", "s", "lower"},        // process user+sys CPU per unit
	{"peak_rss_mb", "MB", "lower"}, // peak resident set of the process doing the work
	{"sim_rate", "s/s", "higher"},  // simulated seconds of core.Run cells per CPU second
}

// perLayer are the traced run's per-layer numbers. Inapplicable layers
// read 0 on a workload that does not exercise them.
var perLayer = []metricDef{
	{"sim.ns_per_event", "ns", "lower"},
	{"sim.allocs_per_event", "count", "lower"},
	{"sim.events_per_sim_s", "1/s", "lower"},
	{"kernel.switches_per_sim_s", "1/s", "lower"},
	{"kernel.interrupts_per_sim_s", "1/s", "lower"},
	{"kernel.dpcs_per_sim_s", "1/s", "lower"},
	{"kernel.handoff_ns", "ns", "lower"},
	{"hw.nic_packets_per_sim_s", "1/s", "lower"},
	{"hw.nic_pkts_per_assert", "count", "higher"},
	{"hw.nic_drop_frac", "ratio", "lower"},
	{"latdriver.samples_per_sim_s", "1/s", "higher"},
	{"core.cell_ms_p50", "ms", "lower"},
	{"core.cell_ms_p90", "ms", "lower"},
	{"core.encode_us", "us", "lower"},
	{"core.decode_us", "us", "lower"},
	{"core.result_kb", "KB", "lower"},
	{"core.aux_ms", "ms", "lower"},
	{"stats.merge_ms", "ms", "lower"},
	{"figures.emit_ms", "ms", "lower"},
	{"campaign.queue_wait_ms_p50", "ms", "lower"},
	{"campaign.tail_idle_frac", "ratio", "lower"},
	{"store.save_us", "us", "lower"},
	{"store.load_us", "us", "lower"},
	{"store.hit_ratio", "ratio", "higher"},
	{"server.submit_ms", "ms", "lower"},
	{"server.queue_wait_ms", "ms", "lower"},
	{"server.exec_ms", "ms", "lower"},
	{"server.result_ms", "ms", "lower"},
	{"server.journal_append_us", "us", "lower"},
	{"server.deduped", "count", "higher"},
	{"server.cells_executed", "count", "lower"},
	{"coordinator.lease_ms_p50", "ms", "lower"},
	{"coordinator.complete_ms_p50", "ms", "lower"},
	{"coordinator.lease_calls_per_cell", "count", "lower"},
	{"coordinator.overhead_ms_per_cell", "ms", "lower"},
	{"coordinator.redispatched", "count", "lower"},
	{"client.retries", "count", "lower"},
	{"frontier.probes", "count", "lower"},
	{"frontier.probe_ms_p50", "ms", "lower"},
	{"runtime.gc_cpu_frac", "ratio", "lower"},
	{"runtime.alloc_mb", "MB", "lower"},
	{"runtime.goroutines_peak", "count", "lower"},
	{"gen.tail_latency_ms", "ms", "lower"},
	{"gen.late_ms_p90", "ms", "lower"},
	{"gen.max_rate", "1/s", "higher"},
	{"trace.overhead_frac", "ratio", "lower"},
	{"self.gen_frac", "ratio", "lower"},
	{"self.client_frac", "ratio", "lower"},
	{"self.server_frac", "ratio", "lower"},
	{"self.coordinator_frac", "ratio", "lower"},
	{"self.campaign_frac", "ratio", "lower"},
	{"self.core_frac", "ratio", "lower"},
	{"self.stats_frac", "ratio", "lower"},
	{"self.figures_frac", "ratio", "lower"},
}

// spanLayers are the layers whose share of span self time is reported as
// self.<layer>_frac, outermost first: a span is only ever attached to a
// parent from an earlier entry (see tracer.link).
var spanLayers = []string{"gen", "client", "server", "coordinator", "campaign", "core", "stats", "figures"}

// metrics holds one run's values; complete checks that exactly the defined
// metrics were set, so a run can never print a partial or misspelled set.
type metrics map[string]float64

// add copies o's values into m.
func (m metrics) add(o metrics) {
	for k, v := range o {
		m[k] = v
	}
}

func (m metrics) complete(defs []metricDef) error {
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, v)
		}
	}
	if len(m) != len(defs) {
		known := map[string]bool{}
		for _, d := range defs {
			known[d.Name] = true
		}
		for k := range m {
			if !known[k] {
				return fmt.Errorf("metric %s is not defined", k)
			}
		}
	}
	return nil
}

// tailQuantile returns the highest of the standard percentiles that has at
// least ten of n samples beyond it. With fewer than 20 samples none has, and
// it returns the median: a run that small resolves no tail, and its
// slowest sample is too noisy to track.
func tailQuantile(n int) float64 {
	q := 0.5
	for _, c := range []float64{0.9, 0.99, 0.999} {
		if float64(n)*(1-c) >= 10-1e-9 {
			q = c
		}
	}
	return q
}

// quantile is the nearest-rank quantile of xs (which it sorts): the
// smallest sample with at least q·n samples at or below it.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tail is the tailQuantile percentile of xs.
func tail(xs []float64) float64 { return quantile(xs, tailQuantile(len(xs))) }

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// which is how run-to-run spreads are judged; a single value is its own
// quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return 0, 0
	case 1:
		return d[0], d[0]
	}
	q := func(i int) float64 {
		m := len(d) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(d)-1 {
			j = len(d) - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msList(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
