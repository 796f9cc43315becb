// Package frontier sweeps offered interrupt load against each OS persona ×
// NIC-moderation mode and locates the livelock knee: the highest offered
// packet rate the system sustains under the deterministic saturation
// criterion. The paper measures latency at fixed, polite workloads; the
// frontier asks the complementary modern question — how much interrupt
// load can each persona absorb before latency collapses — and reports the
// latency-CCDF-vs-offered-load surface that results.
//
// The sweep is built on internal/campaign: every probe is a campaign cell
// (or an adaptive-precision logical cell), so frontiers inherit parallel
// execution, checkpoint/resume, fleet dispatch and the byte-for-byte
// determinism contract for free. Probe keys are
// "storm/<os>/<mode>/r<pps>", and the knee search — geometric grid ascent
// to bracket the knee, then log-space bisection inside the bracket — asks
// for exactly the same keys in the same order regardless of Jobs, resume
// or fleet placement.
package frontier

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"wdmlat/internal/campaign"
	"wdmlat/internal/core"
	"wdmlat/internal/hw"
	"wdmlat/internal/metrics"
	"wdmlat/internal/ospersona"
	"wdmlat/internal/stats"
)

// Metric names the sweep publishes on Options.Metrics.
const (
	// MetricProbes counts offered-load probes evaluated (grid + bisection).
	MetricProbes = "frontier_probes"
	// MetricSaturatedProbes counts probes the criterion judged saturated.
	MetricSaturatedProbes = "frontier_saturated_probes"
	// MetricKnees counts tracks that located a knee inside the sweep range.
	MetricKnees = "frontier_knees"
	// MetricCensoredTracks counts tracks that never saturated up to MaxPPS
	// (their knee is right-censored at the sweep ceiling).
	MetricCensoredTracks = "frontier_censored_tracks"
)

// Options configures a sweep. The grid ascent's ×2 step and Evaluate's
// saturation thresholds are constants.
type Options struct {
	// OSes are the personas to sweep (default NT4 and Win98).
	OSes []ospersona.OS
	// Modes are the NIC moderation modes (default per-assert and itr).
	Modes []hw.Moderation
	// MinPPS / MaxPPS bound the offered-rate range (defaults 4096 and
	// 262144, the storm lattice ceiling). MinPPS must be >= 1.
	MinPPS, MaxPPS float64
	// BisectSteps is how many log-space bisection probes refine the knee
	// bracket after the grid ascent (default 3).
	BisectSteps int
	// Duration is the per-replica virtual collection time (default 2s).
	Duration time.Duration
	// Runs is the fixed replica count per probe (default 3); ignored when
	// Precision is set.
	Runs int
	// Precision, if non-nil, replaces fixed replicas with the PR 9
	// adaptive stopping rule per probe.
	Precision *stats.Precision
	// StormBytes is the storm frame size (default 1460).
	StormBytes int
	// NICGapUS is the moderation spacing for the throttled modes
	// (default 250 µs).
	NICGapUS float64
	// Metrics, if non-nil, receives the frontier_* instruments. Telemetry
	// is out-of-band: results are byte-identical with or without it.
	Metrics *metrics.Registry
}

func (o Options) normalized() Options {
	if len(o.OSes) == 0 {
		o.OSes = []ospersona.OS{ospersona.NT4, ospersona.Win98}
	}
	if len(o.Modes) == 0 {
		o.Modes = []hw.Moderation{hw.ModeratePerWindow, hw.ModerateITR}
	}
	if o.MinPPS <= 0 {
		o.MinPPS = 4096
	}
	if o.MaxPPS <= 0 {
		o.MaxPPS = 262144
	}
	if o.BisectSteps == 0 {
		o.BisectSteps = 3
	}
	if o.Duration == 0 {
		o.Duration = 2 * time.Second
	}
	if o.Runs <= 0 {
		o.Runs = 3
	}
	return o
}

// Validate rejects options that describe no sweep: a rate or gap that is
// NaN or infinite (the simulator builds no storm at a NaN rate, and the
// checkpoint fingerprint cannot encode one), a floor below 1 pps or above
// the ceiling once defaults apply, or a negative frame size. Run calls it
// before its first probe.
func (o Options) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{{"MinPPS", o.MinPPS}, {"MaxPPS", o.MaxPPS}, {"NICGapUS", o.NICGapUS}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("frontier: %s is %v, want a finite number", f.name, f.v)
		}
	}
	n := o.normalized()
	if n.MinPPS < 1 || n.MinPPS > n.MaxPPS {
		return fmt.Errorf("frontier: sweep range [%v, %v] pps is empty or starts below 1 pps", n.MinPPS, n.MaxPPS)
	}
	if o.StormBytes < 0 {
		return fmt.Errorf("frontier: StormBytes is %d, want >= 0", o.StormBytes)
	}
	return nil
}

// Probe is one evaluated offered-load point on a track.
type Probe struct {
	PPS     float64
	Verdict Verdict
	// Result is the merged measurement at this rate (latency histograms,
	// storm accounting, pacing stats) — the CCDF source for the figures.
	Result *core.Result
	// Adaptive reports the replica loop's outcome when a precision policy
	// drove the probe (zero value under fixed replicas).
	Adaptive campaign.Adaptive
}

// Frontier is one (persona × moderation mode) track's outcome.
type Frontier struct {
	OS   ospersona.OS
	Mode hw.Moderation
	// Probes are every evaluated point, sorted by ascending offered rate.
	Probes []Probe
	// Knee is the highest offered rate judged sustainable. Zero means even
	// MinPPS saturated (the knee lies below the sweep floor).
	Knee float64
	// Censored reports that no probe saturated up to MaxPPS: Knee equals
	// MaxPPS but the true knee lies beyond the sweep ceiling.
	Censored bool
}

// KneeLabel renders the knee for tables: "157k pps", "<4096 pps" when the
// floor saturated, ">=262144 pps (censored)" when the ceiling held.
func (f *Frontier) KneeLabel() string {
	switch {
	case f.Censored:
		return fmt.Sprintf(">=%d pps (censored)", int64(f.Knee))
	case f.Knee == 0:
		return fmt.Sprintf("<%d pps", int64(f.Probes[0].PPS))
	default:
		return fmt.Sprintf("%d pps", int64(f.Knee))
	}
}

// rateKey is the probe's campaign cell key: offered rates are always whole
// packets per second, so the key is exact and stable.
func rateKey(os ospersona.OS, mode hw.Moderation, pps float64) string {
	return campaign.Key("storm", campaign.OSSlug(os), mode.String(),
		fmt.Sprintf("r%d", int64(pps)))
}

// Run sweeps every (persona × mode) track on the given campaign runner and
// returns the frontiers in (OSes × Modes) declaration order. Tracks run
// concurrently — the runner's worker pool still bounds actual simulation
// parallelism — and every probe's result is deterministic per the campaign
// contract, so the returned frontiers are byte-identical at any Jobs
// setting, across kill/resume against the same store, and under fleet
// dispatch.
func Run(r *campaign.Runner, opts Options) ([]Frontier, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	o := opts.normalized()
	probesMet := o.Metrics.Counter(MetricProbes)
	satMet := o.Metrics.Counter(MetricSaturatedProbes)
	kneesMet := o.Metrics.Counter(MetricKnees)
	censMet := o.Metrics.Counter(MetricCensoredTracks)

	type slot struct {
		f   Frontier
		err error
	}
	out := make([]slot, len(o.OSes)*len(o.Modes))
	var wg sync.WaitGroup
	idx := 0
	for _, os := range o.OSes {
		for _, mode := range o.Modes {
			os, mode, i := os, mode, idx
			idx++
			wg.Add(1)
			go func() {
				defer wg.Done()
				f, err := sweepTrack(r, o, os, mode, probesMet, satMet)
				if err == nil {
					if f.Censored {
						censMet.Inc()
					} else if f.Knee > 0 {
						kneesMet.Inc()
					}
				}
				out[i] = slot{f, err}
			}()
		}
	}
	wg.Wait()

	frontiers := make([]Frontier, 0, len(out))
	for _, s := range out {
		if s.err != nil {
			return nil, s.err
		}
		frontiers = append(frontiers, s.f)
	}
	return frontiers, nil
}

// sweepTrack runs one (os, mode) track: geometric ascent from MinPPS until
// the first saturated probe (or the ceiling), then log-space bisection
// inside the bracketing interval.
func sweepTrack(r *campaign.Runner, o Options, os ospersona.OS, mode hw.Moderation,
	probesMet, satMet *metrics.Counter) (Frontier, error) {

	f := Frontier{OS: os, Mode: mode}
	seen := map[float64]bool{}

	probe := func(pps float64) (Probe, error) {
		cfg := core.RunConfig{
			OS:            os,
			Idle:          true,
			StormPPS:      pps,
			StormBytes:    o.StormBytes,
			NICModeration: mode,
			NICGapUS:      o.NICGapUS,
			Duration:      o.Duration,
		}
		key := rateKey(os, mode, pps)
		var res *core.Result
		var ad campaign.Adaptive
		var err error
		if o.Precision != nil {
			res, ad, err = r.MergedAdaptive(key, cfg, *o.Precision)
		} else {
			r.Submit(campaign.Replicas(key, cfg, o.Runs)...)
			res, err = r.Merged(key, o.Runs)
		}
		if err != nil {
			return Probe{}, err
		}
		p := Probe{PPS: pps, Verdict: Evaluate(res), Result: res, Adaptive: ad}
		probesMet.Inc()
		if p.Verdict.Saturated {
			satMet.Inc()
		}
		f.Probes = append(f.Probes, p)
		seen[pps] = true
		return p, nil
	}

	// Geometric ascent by doubling: bracket the knee between the last
	// sustainable rate (lo) and the first saturated one (hi).
	var lo, hi float64
	pps := math.Floor(o.MinPPS)
	for {
		p, err := probe(pps)
		if err != nil {
			return f, err
		}
		if p.Verdict.Saturated {
			hi = pps
			break
		}
		lo = pps
		if pps >= o.MaxPPS {
			break
		}
		pps = math.Floor(pps * 2)
		if pps > o.MaxPPS {
			pps = math.Floor(o.MaxPPS)
		}
	}

	switch {
	case hi == 0:
		// Never saturated: right-censored at the ceiling.
		f.Knee, f.Censored = lo, true
	case lo == 0:
		// Even the floor saturated: the knee lies below the sweep range.
		f.Knee = 0
	default:
		// Log-space bisection: rates are whole pps, and a repeated midpoint
		// (bracket too tight to split) ends the refinement early.
		for step := 0; step < o.BisectSteps; step++ {
			mid := math.Floor(math.Sqrt(lo * hi))
			if seen[mid] || mid <= lo || mid >= hi {
				break
			}
			p, err := probe(mid)
			if err != nil {
				return f, err
			}
			if p.Verdict.Saturated {
				hi = mid
			} else {
				lo = mid
			}
		}
		f.Knee = lo
	}

	sort.Slice(f.Probes, func(i, j int) bool { return f.Probes[i].PPS < f.Probes[j].PPS })
	return f, nil
}
