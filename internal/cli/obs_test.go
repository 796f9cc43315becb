package cli

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wdmlat/internal/campaign"
	"wdmlat/internal/core"
	"wdmlat/internal/metrics"
)

// newTestObs builds an Obs on a private FlagSet so tests never touch
// flag.CommandLine.
func newTestObs(t *testing.T, args ...string) *Obs {
	t.Helper()
	fs := flag.NewFlagSet("obs-test", flag.ContinueOnError)
	o := NewObs("obstest", fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return o
}

// TestObsTelemetrySnapshot: -telemetry writes a parseable JSON snapshot of
// the registry on Close, and Close is idempotent (the FailCampaign path and
// a deferred Close may both run).
func TestObsTelemetrySnapshot(t *testing.T) {
	out := filepath.Join(t.TempDir(), "telemetry.json")
	o := newTestObs(t, "-telemetry", out)
	if err := o.Start(); err != nil {
		t.Fatal(err)
	}
	o.Registry.Counter(campaign.MetricCellsCompleted).Add(7)
	o.Registry.Gauge(campaign.MetricQueueDepth).Set(3)
	o.Registry.Histogram(campaign.MetricCellWallTime).Observe(5 * time.Millisecond)
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var s metrics.Snapshot
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatalf("telemetry is not valid JSON: %v\n%s", err, raw)
	}
	if s.Counters[campaign.MetricCellsCompleted] != 7 {
		t.Fatalf("snapshot counters wrong: %+v", s.Counters)
	}
	if s.Histograms[campaign.MetricCellWallTime].Count != 1 {
		t.Fatalf("snapshot histograms wrong: %+v", s.Histograms)
	}
	if err := os.Remove(out); err != nil {
		t.Fatal(err)
	}
	if err := o.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatal("second Close rewrote the telemetry file")
	}
}

// TestObsProfiles: -cpuprofile and -memprofile produce non-empty profile
// files through the Start/Close lifecycle.
func TestObsProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	o := newTestObs(t, "-cpuprofile", cpu, "-memprofile", mem)
	if err := o.Start(); err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile has something to say.
	x := 0
	for i := 0; i < 1e6; i++ {
		x += i * i
	}
	_ = x
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s: %v", p, err)
		}
		if fi.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
}

// TestObsProgressLine: the reporter line carries done/total from the
// runner and an ETA once wall-time observations exist.
func TestObsProgressLine(t *testing.T) {
	o := newTestObs(t, "-progress")
	if err := o.Start(); err != nil {
		t.Fatal(err)
	}
	run := campaign.New(campaign.Options{
		BaseSeed: 1, Jobs: 2, Metrics: o.Registry,
		ExecuteCell: func(string, core.RunConfig) (*core.Result, error) { return &core.Result{}, nil },
	})
	run.Submit(
		campaign.Cell{Key: "a"},
		campaign.Cell{Key: "b"},
		campaign.Cell{Key: "c"},
		campaign.Cell{Key: "d"},
	)
	if err := run.Wait(); err != nil {
		t.Fatal(err)
	}
	line := o.progressLine(run)
	if !strings.Contains(line, "4/4 cells (100%)") {
		t.Fatalf("progress line missing completion: %q", line)
	}
	if !strings.Contains(line, "cells/s") || !strings.Contains(line, "ETA") {
		t.Fatalf("progress line missing throughput/ETA: %q", line)
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestObsProgressReporterLifecycle: StartProgress spins the ticker
// goroutine and Close tears it down without leaking or racing (make race
// covers the latter).
func TestObsProgressReporterLifecycle(t *testing.T) {
	old := progressInterval
	progressInterval = time.Millisecond
	defer func() { progressInterval = old }()

	o := newTestObs(t, "-progress")
	if err := o.Start(); err != nil {
		t.Fatal(err)
	}
	run := campaign.New(campaign.Options{
		BaseSeed: 1, Jobs: 2, Metrics: o.Registry,
		ExecuteCell: func(string, core.RunConfig) (*core.Result, error) {
			time.Sleep(2 * time.Millisecond)
			return &core.Result{}, nil
		},
	})
	o.StartProgress(run)
	run.Submit(campaign.Cell{Key: "a"}, campaign.Cell{Key: "b"})
	if err := run.Wait(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond) // let at least one tick fire
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
}
