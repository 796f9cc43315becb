package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"wdmlat/internal/api"
	"wdmlat/internal/core"
)

const (
	// fleetCells is one fleet-shard campaign: enough cells that the
	// coordinator's per-cell cost, not the workers' idle poll, sets its
	// wall time, and few enough that a run holds many campaigns. Each is
	// timed on its own and the run reports medians, so a few seconds of
	// slow memory on a shared host move a few campaigns, not the result.
	fleetCells      = 256
	fleetQuickCells = 64
	// fleetCampaignSeconds sizes a run: one timed campaign per this many
	// seconds of -seconds, at least two. The count depends only on the
	// flag, so every run does the same work.
	fleetCampaignSeconds = 0.625
	// fleetWarmups untimed campaigns of the same size come first. A fresh
	// process runs its first campaigns slower, with about twice the page
	// faults and up to half again the system CPU of later ones, so timing
	// them would make the result depend on how long that lasted.
	fleetWarmups = 5
	// fleetCell is each cell's virtual collection: an idle machine for a
	// quarter second, so simulation is a small part of the cost and the
	// coordinator, durability and protocol dominate.
	fleetCell = 250 * time.Millisecond
)

// fleetSpec is campaign k of a fleet run: n never-seen idle cells
// alternating between the personas.
func fleetSpec(seed uint64, k, n int) *api.CampaignSpec {
	spec := &api.CampaignSpec{BaseSeed: seed}
	for j := 0; j < n; j++ {
		spec.Cells = append(spec.Cells, api.CellSpec{
			Key:    fmt.Sprintf("c%d/%d", k, j),
			Config: core.RunConfig{OS: personas[j%len(personas)], Idle: true, Duration: fleetCell},
		})
	}
	return spec
}

// runFleet is fleet-shard: latserved -fleet in-process with two workers;
// after untimed warm-up campaigns of the same size, a fixed number of
// consecutive campaigns.
func runFleet(ctx context.Context, a childArgs) (*runResult, error) {
	var tr *tracer
	if a.Trace {
		tr = newTracer()
	}
	var sample atomic.Pointer[core.Result]
	var execute func(core.RunConfig) *core.Result
	if tr != nil {
		execute = func(cfg core.RunConfig) *core.Result {
			o := tr.start("core.run", "", 0)
			res := core.Run(cfg)
			o.end()
			sample.CompareAndSwap(nil, res)
			return res
		}
	}
	s, moreSetups, err := setupTimes(ctx, a.Tmp, svcConfig{fleet: true, tr: tr, execute: execute})
	if err != nil {
		return nil, err
	}
	n := fleetCells
	if a.Quick {
		n = fleetQuickCells
	}
	gen := newGenerator(s.url, tr, nil)
	for k := 1; k <= fleetWarmups; k++ {
		if _, _, err := runCampaign(ctx, gen.c, nil, 0, fleetSpec(a.Seed, -k, n), nil); err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up campaign: %w", err)
		}
	}

	var watch *runtimeWatch
	if tr != nil {
		watch = watchRuntime()
	}
	res := &runResult{Workload: "fleet-shard", Seed: a.Seed, Correct: true}
	var walls, cpus []float64
	var queueWait []time.Duration
	var first []byte
	var firstSpec *api.CampaignSpec
	windowStart := tr.elapsed()
	before := readCounters(s.reg)
	campaigns := max(2, int(math.Round(a.Seconds/fleetCampaignSeconds)))
	for k := 0; k < campaigns; k++ {
		spec := fleetSpec(a.Seed, k, n)
		root := tr.reserve()
		start, cpuStart := time.Now(), cpuTime()
		id, data, err := runCampaign(ctx, gen.c, tr, root, spec, func(ev api.Event) {
			if ev.Type == api.EventState && ev.State == api.StateRunning {
				queueWait = append(queueWait, time.Since(start))
			}
		})
		end, cpuEnd := time.Now(), cpuTime()
		tr.finish(root, "gen.campaign", id, start, end)
		res.Attempted++
		if err != nil {
			res.Failed++
			res.problem("campaign %d: %v", k, err)
			break
		}
		walls = append(walls, end.Sub(start).Seconds())
		cpus = append(cpus, (cpuEnd - cpuStart).Seconds())
		if docs := bytes.Count(data, []byte("\n")); docs != n {
			res.problem("campaign %d: %d result documents for %d cells", k, docs, n)
		}
		if first == nil {
			first, firstSpec = data, spec
		}
	}
	delta := readCounters(s.reg).sub(before)
	if delta.rejected > 0 {
		res.Failed += int(delta.rejected)
		res.problem("%d submissions refused", delta.rejected)
	}
	if first != nil {
		local, err := localResult(firstSpec)
		switch {
		case err != nil:
			res.problem("local run: %v", err)
		case !bytes.Equal(local, first):
			res.problem("fleet result differs from the same campaign run locally")
		}
	}
	if len(walls) == 0 {
		s.close()
		return res, nil
	}
	res.Wall = median(append([]float64(nil), walls...))
	if tr == nil {
		if err := s.close(); err != nil {
			res.problem("closing the service: %v", err)
		}
		setups, err := moreSetups()
		if err != nil {
			return nil, err
		}
		cpu := median(cpus)
		simulated := float64(delta.executed) / float64(len(walls)) * (fleetCell + defaultWarmup).Seconds()
		res.Metrics = metrics{
			"setup_s":  median(setups),
			"wall_s":   res.Wall,
			"cpu_s":    cpu,
			"sim_rate": simulated / cpu,
		}
		return res, nil
	}

	layers := watch.finish()
	var spans []span
	for _, sp := range tr.snapshot() {
		if sp.Start >= windowStart {
			spans = append(spans, sp)
		}
	}
	if err := writeTrace(a.TraceOut, res.Workload, spans); err != nil {
		return nil, err
	}
	cells := float64(len(walls) * n)
	layers.add(s.layers(spans, delta, gen, queueWait))
	layers["coordinator.lease_ms_p50"] = median(durations(spans, "coordinator.lease"))
	layers["coordinator.complete_ms_p50"] = median(durations(spans, "coordinator.complete"))
	layers["coordinator.lease_calls_per_cell"] = float64(len(durations(spans, "coordinator.lease"))) / cells
	layers["coordinator.overhead_ms_per_cell"] = (sum(walls)*1e3*fleetWorkers - sum(durations(spans, "core.run"))) / cells
	layers["coordinator.redispatched"] = float64(delta.redispatched)
	if err := s.close(); err != nil {
		res.problem("closing the service: %v", err)
	}
	addProbes(res, layers, a.Seed, sample.Load(), a.Tmp)
	notExercised(layers, "campaign.", "stats.", "figures.", "frontier.", "core.aux_ms", "gen.")
	res.Metrics = layers
	return res, nil
}
