package frontier

import (
	"fmt"

	"wdmlat/internal/core"
	"wdmlat/internal/workload"
)

// The saturation thresholds Evaluate judges a probe against.
const (
	// maxDropFrac is the tolerated ring-overflow fraction.
	maxDropFrac = 0.01
	// minCPUAvail is the minimum CPU-available fraction.
	minCPUAvail = 0.10
	// growthFactor is the late/early backlog ratio that counts as growth.
	growthFactor = 4
	// growthFloor is the minimum late-window mean occupancy, in packets,
	// for the growth signal to fire (¾ of the 128-slot ring), so small
	// absolute wobbles can never trip it.
	growthFloor = 96
)

// Verdict is one probe's evaluation: the boolean that steers the sweep
// plus the measured signals, kept for the frontier tables.
type Verdict struct {
	Saturated bool
	// Reasons lists which signals fired, in the stable order
	// "drops", "cpu", "backlog" (empty when sustainable).
	Reasons []string
	// DropFrac is dropped/offered; CPUAvail is the available fraction;
	// BacklogEarly/BacklogLate are the early/late mean ring occupancies
	// the growth signal compared.
	DropFrac     float64
	CPUAvail     float64
	BacklogEarly float64
	BacklogLate  float64
}

// String renders the verdict for tables and logs.
func (v Verdict) String() string {
	state := "sustainable"
	if v.Saturated {
		state = fmt.Sprintf("saturated%v", v.Reasons)
	}
	return fmt.Sprintf("%s drop=%.4f cpu=%.3f backlog=%.1f→%.1f",
		state, v.DropFrac, v.CPUAvail, v.BacklogEarly, v.BacklogLate)
}

// Evaluate is the deterministic livelock/saturation test a probe's merged
// result is judged by. A probe saturates when any of three signals fires:
//
//   - drops: the ring overflows more than 1% of offered packets — the
//     driver demonstrably cannot keep up;
//   - cpu: the CPU-available fraction (cycles not spent in ISRs, DPCs,
//     overhead episodes, context switches or measured threads) falls below
//     10% — the receive-livelock regime of Horst et al., where the system
//     still delivers packets but has no cycles left for any application;
//   - backlog: the sampled ring occupancy trends upward across the run —
//     late-window mean at least 96 packets AND at least 4 times the
//     early-window mean — the queue is growing without bound even though
//     drops have not started yet.
//
// Every input is pooled deterministically by the campaign layer, so the
// verdict is a pure function of (config, seed) — the property the frontier
// byte-identity tests pin. Evaluate panics if the result carries no storm
// stats (the probe was misconfigured, not borderline).
func Evaluate(res *core.Result) Verdict {
	if res.Storm == nil {
		panic("frontier: evaluating a result with no storm stats")
	}
	var v Verdict
	if res.Storm.Offered > 0 {
		v.DropFrac = float64(res.Storm.Dropped) / float64(res.Storm.Offered)
	}
	v.CPUAvail = 1
	if res.Observed > 0 {
		v.CPUAvail = 1 - float64(res.Counters.Busy())/float64(res.Observed)
	}
	v.BacklogEarly, v.BacklogLate = backlogWindows(res.Storm.Backlog)

	if v.DropFrac > maxDropFrac {
		v.Reasons = append(v.Reasons, "drops")
	}
	if v.CPUAvail < minCPUAvail {
		v.Reasons = append(v.Reasons, "cpu")
	}
	if v.BacklogLate >= growthFloor && v.BacklogLate >= growthFactor*max(1, v.BacklogEarly) {
		v.Reasons = append(v.Reasons, "backlog")
	}
	v.Saturated = len(v.Reasons) > 0
	return v
}

// backlogWindows computes the early- and late-quarter mean ring occupancy
// of a backlog trajectory. Merged replicas concatenate their trajectories,
// so the series is first split into per-replica segments wherever the
// sample time resets; each segment contributes its own quarters and the
// segments' means are averaged (every replica has equal weight — growth in
// one replica cannot be laundered against another's idle tail).
func backlogWindows(samples []workload.BacklogSample) (early, late float64) {
	if len(samples) == 0 {
		return 0, 0
	}
	var segs [][]workload.BacklogSample
	start := 0
	for i := 1; i < len(samples); i++ {
		if samples[i].T <= samples[i-1].T {
			segs = append(segs, samples[start:i])
			start = i
		}
	}
	segs = append(segs, samples[start:])

	var nseg float64
	for _, seg := range segs {
		q := len(seg) / 4
		if q < 1 {
			q = 1
		}
		var e, l float64
		for _, s := range seg[:q] {
			e += float64(s.Pending)
		}
		for _, s := range seg[len(seg)-q:] {
			l += float64(s.Pending)
		}
		early += e / float64(q)
		late += l / float64(q)
		nseg++
	}
	return early / nseg, late / nseg
}
