package campaign

import (
	"sync"

	"wdmlat/internal/core"
	"wdmlat/internal/ospersona"
	"wdmlat/internal/stats"
	"wdmlat/internal/workload"
)

// Adaptive-replica metric names (see also the Metric* constants in
// campaign.go). Counters, so a campaign resumed across processes reports
// only what each process actually decided.
const (
	// MetricReplicasAdaptive counts replicas charged to adaptive logical
	// cells — the quantity a fixed-replica campaign would have had to guess.
	MetricReplicasAdaptive = "campaign_replicas_adaptive"
	// MetricCellsConverged counts logical cells whose stopping rule was
	// satisfied before the replica cap.
	MetricCellsConverged = "campaign_cells_converged"
	// MetricConvergenceFailures counts logical cells that hit MaxRuns still
	// unconverged — their results ship, but the requested precision does
	// not hold and the campaign's aggregate claim must say so.
	MetricConvergenceFailures = "campaign_convergence_failures"
)

// SteadyWindow is the trailing-window length of the steady-state test the
// adaptive stopping rule applies to per-replica quantile trajectories. It
// matches stats.DefaultMinRuns so the rule can fire at the very first
// evaluation when the data genuinely are settled.
const SteadyWindow = 3

// Adaptive describes how one logical cell's adaptive replica loop ended.
type Adaptive struct {
	// Replicas is the number of replicas pooled into the returned result.
	Replicas int
	// Converged reports whether the stopping rule was satisfied; false
	// means the cell hit the MaxRuns cap first and the requested precision
	// is not guaranteed.
	Converged bool
}

// convergenceTargets returns the pooled distributions the stopping rule
// watches: the DPC-interrupt latency and the two measurement-thread
// latencies — the three Figure 4 panels every headline claim reads from.
// Nil histograms (e.g. a personality without a thread tier) are skipped.
func convergenceTargets(res *core.Result) []*stats.Histogram {
	targets := make([]*stats.Histogram, 0, 3)
	if res.DpcInt != nil {
		targets = append(targets, res.DpcInt)
	}
	if h := res.Thread[res.HighPriority()]; h != nil {
		targets = append(targets, h)
	}
	if h := res.Thread[res.MediumPriority()]; h != nil {
		targets = append(targets, h)
	}
	return targets
}

// adaptiveDone evaluates the stopping rule on the pooled prefix: every
// watched quantile of every target distribution must be DKW-converged to
// the policy's relative half-width, and every per-replica estimate
// trajectory must have settled (SteadyState over the last SteadyWindow
// replicas). A pure function of (merged, traj, policy) — no clocks, no
// worker identity — so every execution path agrees on it.
func adaptiveDone(merged *core.Result, traj [][]float64, p stats.Precision) bool {
	for _, h := range convergenceTargets(merged) {
		for _, q := range p.Quantiles {
			if !h.QuantileConverged(q, p.Confidence, p.RelWidth) {
				return false
			}
		}
	}
	for _, series := range traj {
		if !stats.SteadyState(series, SteadyWindow, p.RelWidth) {
			return false
		}
	}
	return true
}

// MergedAdaptive runs replicas of one logical cell adaptively: it submits
// MinRuns replicas, pools them in replica order exactly like Merged, and
// keeps adding Batch more until the precision policy's stopping rule holds
// or MaxRuns is reached. Replica seeds come from the same DeriveSeed(base,
// ReplicaKey(key, i)) scheme as fixed campaigns, and the stopping rule is
// evaluated only on pooled replica prefixes — a pure function of the data —
// so the chosen replica count, and therefore the returned result, is
// byte-identical at any Jobs setting and across resume and fleet execution.
// Replicas within a round execute in parallel on the runner's pool.
//
// The cell's replicas must not have been submitted already (Submit panics
// on duplicate keys); MergedAdaptive owns the "<key>/<i>" namespace for its
// key. Any failed replica aborts collection with that replica's error.
func (r *Runner) MergedAdaptive(key string, cfg core.RunConfig, prec stats.Precision) (*core.Result, Adaptive, error) {
	p := prec.Normalized()
	if err := p.Validate(); err != nil {
		return nil, Adaptive{}, err
	}

	var merged *core.Result
	var traj [][]float64 // per target×quantile estimate trajectory
	submitted, pooled := 0, 0

	// extend submits replicas [submitted, n) — one adaptive round — and
	// pools them in replica order as they finish.
	extend := func(n int) error {
		cells := make([]Cell, 0, n-submitted)
		for i := submitted; i < n; i++ {
			cells = append(cells, Cell{Key: ReplicaKey(key, i), Config: cfg})
		}
		submitted = n
		r.Submit(cells...)
		for ; pooled < n; pooled++ {
			res, err := r.Result(ReplicaKey(key, pooled))
			if err != nil {
				return err
			}
			if merged == nil {
				merged = res.Clone()
			} else {
				merged.Merge(res)
			}
			targets := convergenceTargets(merged)
			if traj == nil {
				traj = make([][]float64, len(targets)*len(p.Quantiles))
			}
			for ti, h := range targets {
				for qi, q := range p.Quantiles {
					s := ti*len(p.Quantiles) + qi
					traj[s] = append(traj[s], float64(h.Quantile(q)))
				}
			}
		}
		return nil
	}

	if err := extend(p.MinRuns); err != nil {
		return nil, Adaptive{}, err
	}
	converged := adaptiveDone(merged, traj, p)
	for !converged && pooled < p.MaxRuns {
		next := pooled + p.Batch
		if next > p.MaxRuns {
			next = p.MaxRuns
		}
		if err := extend(next); err != nil {
			return nil, Adaptive{}, err
		}
		converged = adaptiveDone(merged, traj, p)
	}

	r.met.adaptive.Add(uint64(pooled))
	if converged {
		r.met.converged.Inc()
	} else {
		r.met.convFailed.Inc()
	}
	return merged, Adaptive{Replicas: pooled, Converged: converged}, nil
}

// RunMatrixAdaptive is RunMatrix with a precision policy instead of a fixed
// replica count: every logical OS × workload cell runs its own adaptive
// loop (concurrently — the runner's pool still bounds actual parallelism),
// so light cells stop early and noisy ones keep sampling. It returns the
// pooled results, the per-logical-cell Adaptive outcomes keyed by
// MatrixKey, and the first failure in deterministic cell order.
func (r *Runner) RunMatrixAdaptive(oses []ospersona.OS, classes []workload.Class, variant string, base core.RunConfig, prec stats.Precision) (map[ospersona.OS]map[workload.Class]*core.Result, map[string]Adaptive, error) {
	cells := MatrixLogicalCells(oses, classes, variant, base)
	outs := r.mergeAdaptiveAll(cells, prec, nil)
	results := make(map[ospersona.OS]map[workload.Class]*core.Result, len(oses))
	for _, o := range oses {
		results[o] = make(map[workload.Class]*core.Result, len(classes))
	}
	adaptives := make(map[string]Adaptive, len(cells))
	for i, c := range cells {
		if outs[i].err != nil {
			return nil, nil, outs[i].err
		}
		results[c.Config.OS][c.Config.Workload] = outs[i].res
		adaptives[c.Key] = outs[i].ad
	}
	return results, adaptives, nil
}

// adaptiveOutcome is how one logical cell's MergedAdaptive call ended.
type adaptiveOutcome struct {
	res *core.Result
	ad  Adaptive
	err error
}

// mergeAdaptiveAll runs MergedAdaptive for every logical cell concurrently
// on r and returns their outcomes in cell order once all have finished.
// done, if non-nil, fires as each logical cell finishes, from its
// goroutine.
func (r *Runner) mergeAdaptiveAll(cells []Cell, prec stats.Precision, done func(key string)) []adaptiveOutcome {
	outs := make([]adaptiveOutcome, len(cells))
	var wg sync.WaitGroup
	for i, c := range cells {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, ad, err := r.MergedAdaptive(c.Key, c.Config, prec)
			outs[i] = adaptiveOutcome{res, ad, err}
			if done != nil {
				done(c.Key)
			}
		}()
	}
	wg.Wait()
	return outs
}
