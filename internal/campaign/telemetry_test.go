package campaign

// Telemetry tests: the out-of-band contract. Metrics attached to a
// campaign must never change what the campaign computes — byte-identical
// encoded results at any -jobs, with telemetry on or off — and the
// instruments must account for every cell exactly once, including the
// checkpoint-store dispositions.

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"wdmlat/internal/campaign/store"
	"wdmlat/internal/core"
	"wdmlat/internal/metrics"
	"wdmlat/internal/ospersona"
	"wdmlat/internal/workload"
)

// encodeAll runs one real (core.Run) campaign with the given options and
// returns the canonical encoding of every merged matrix cell, in a fixed
// collection order.
func encodeAll(t *testing.T, jobs int, reg *metrics.Registry) []byte {
	t.Helper()
	oses := []ospersona.OS{ospersona.Win98}
	classes := []workload.Class{workload.Business, workload.Games}
	const runs = 2
	r := New(Options{BaseSeed: 17, Jobs: jobs, Metrics: reg})
	byOS, err := r.RunMatrix(oses, classes, "default", core.RunConfig{Duration: shortDur}, runs)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, o := range oses {
		for _, c := range classes {
			if err := core.EncodeResult(&buf, byOS[o][c]); err != nil {
				t.Fatal(err)
			}
		}
	}
	return buf.Bytes()
}

// TestTelemetryOutOfBand is the determinism proof the observability layer
// ships under: the same campaign at -jobs 1 and -jobs 8, with a metrics
// registry attached and without one, encodes byte-identical results in all
// four combinations. It also pins the accounting: every cell is started
// and completed exactly once, the wall-time histogram saw every execution,
// and the load gauges drained back to zero.
func TestTelemetryOutOfBand(t *testing.T) {
	baseline := encodeAll(t, 1, nil)
	const cells = 1 * 2 * 2 // oses × classes × runs

	for _, tc := range []struct {
		label string
		jobs  int
		reg   *metrics.Registry
	}{
		{"jobs1+telemetry", 1, metrics.NewRegistry()},
		{"jobs8", 8, nil},
		{"jobs8+telemetry", 8, metrics.NewRegistry()},
	} {
		got := encodeAll(t, tc.jobs, tc.reg)
		if !bytes.Equal(baseline, got) {
			t.Fatalf("%s: encoded results differ from jobs1-without-telemetry baseline", tc.label)
		}
		if tc.reg == nil {
			continue
		}
		for name, want := range map[string]uint64{
			MetricCellsStarted:   cells,
			MetricCellsCompleted: cells,
			MetricCellsFailed:    0,
			MetricCellsCancelled: 0,
			MetricCellPanics:     0,
		} {
			if got := tc.reg.Counter(name).Value(); got != want {
				t.Errorf("%s: %s = %d, want %d", tc.label, name, got, want)
			}
		}
		if n := tc.reg.Histogram(MetricCellWallTime).Count(); n != cells {
			t.Errorf("%s: wall-time histogram count = %d, want %d", tc.label, n, cells)
		}
		for _, name := range []string{MetricWorkersBusy, MetricQueueDepth} {
			g := tc.reg.Gauge(name)
			if v := g.Value(); v != 0 {
				t.Errorf("%s: drained gauge %s = %d, want 0", tc.label, name, v)
			}
			if m := g.Max(); m < 1 {
				t.Errorf("%s: gauge %s high-watermark = %d, want >= 1", tc.label, name, m)
			}
		}
	}
}

// TestProgressAccounting: Progress reports (done, total) through every
// outcome class — executed cells, checkpoint restores, and cells dropped
// by cancellation all land in done exactly once.
func TestProgressAccounting(t *testing.T) {
	r := New(Options{BaseSeed: 9, Jobs: 2, ExecuteCell: asCell(fakeResult)})
	if d, tot := r.Progress(); d != 0 || tot != 0 {
		t.Fatalf("fresh runner Progress = (%d, %d), want (0, 0)", d, tot)
	}
	r.Submit(Replicas("cell", core.RunConfig{Duration: time.Second}, 5)...)
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
	if d, tot := r.Progress(); d != 5 || tot != 5 {
		t.Fatalf("Progress = (%d, %d), want (5, 5)", d, tot)
	}
}

// TestCheckpointTelemetry walks one store through its three dispositions —
// cold (all misses, all writes), warm (all hits, no executions), and
// corrupt (re-run, counted) — and checks the campaign- and store-level
// counters agree with what happened.
func TestCheckpointTelemetry(t *testing.T) {
	dir := t.TempDir()
	const cells = 4
	cfg := core.RunConfig{Duration: time.Second}

	open := func(reg *metrics.Registry) *store.Store {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		st.Instrument(reg)
		return st
	}
	runCampaign := func(reg *metrics.Registry) {
		r := New(Options{BaseSeed: 2, Jobs: 2, ExecuteCell: asCell(fakeResult), Store: open(reg), Metrics: reg})
		r.Submit(Replicas("cell", cfg, cells)...)
		if err := r.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	expect := func(label string, reg *metrics.Registry, want map[string]uint64) {
		t.Helper()
		for name, w := range want {
			if got := reg.Counter(name).Value(); got != w {
				t.Errorf("%s: %s = %d, want %d", label, name, got, w)
			}
		}
	}

	cold := metrics.NewRegistry()
	runCampaign(cold)
	expect("cold", cold, map[string]uint64{
		MetricCheckpointHits:        0,
		MetricCheckpointMisses:      cells,
		MetricCheckpointCorrupt:     0,
		MetricCellsStarted:          cells,
		MetricCellsCompleted:        cells,
		store.MetricFingerprintMiss: cells,
		store.MetricWrites:          cells,
		store.MetricReads:           0,
	})

	warm := metrics.NewRegistry()
	runCampaign(warm)
	expect("warm", warm, map[string]uint64{
		MetricCheckpointHits:        cells,
		MetricCheckpointMisses:      0,
		MetricCheckpointCorrupt:     0,
		MetricCellsStarted:          0,
		MetricCellsCompleted:        cells,
		store.MetricFingerprintMiss: 0,
		store.MetricWrites:          0,
		store.MetricReads:           cells,
	})

	// Corrupt one checkpoint: that cell re-runs (and re-persists), the rest
	// restore, and the corruption is counted at the campaign level.
	entries, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(entries) != cells {
		t.Fatalf("store entries: %v, %v", entries, err)
	}
	if err := os.WriteFile(entries[0], []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	hurt := metrics.NewRegistry()
	r := New(Options{BaseSeed: 2, Jobs: 2, ExecuteCell: asCell(fakeResult), Store: open(hurt), Metrics: hurt})
	r.Submit(Replicas("cell", cfg, cells)...)
	if err := r.Wait(); err == nil {
		t.Fatal("Wait after corruption should surface the store error")
	}
	expect("corrupt", hurt, map[string]uint64{
		MetricCheckpointHits:    cells - 1,
		MetricCheckpointMisses:  0,
		MetricCheckpointCorrupt: 1,
		MetricCellsStarted:      1,
		MetricCellsCompleted:    cells,
		store.MetricReads:       cells - 1,
		store.MetricWrites:      1,
	})
}
