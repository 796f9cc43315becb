package frontier

import (
	"reflect"
	"testing"

	"wdmlat/internal/core"
	"wdmlat/internal/sim"
	"wdmlat/internal/workload"
)

// stormResult hand-builds a merged result with the given storm accounting
// and busy fraction, the criterion's three inputs.
func stormResult(offered, dropped uint64, busyFrac float64, backlog []workload.BacklogSample) *core.Result {
	const observed = 1 << 30
	r := &core.Result{Observed: observed, Freq: sim.DefaultFreq}
	r.Counters.ISRCycles = sim.Cycles(busyFrac * observed)
	r.Storm = &core.StormStats{
		OfferedPPS: 1000,
		Offered:    offered,
		Dropped:    dropped,
		Backlog:    backlog,
	}
	return r
}

// flat builds a steady backlog trajectory at the given occupancy.
func flat(n int, pending int) []workload.BacklogSample {
	out := make([]workload.BacklogSample, n)
	for i := range out {
		out[i] = workload.BacklogSample{T: sim.Time(i + 1), Pending: pending}
	}
	return out
}

// ramp builds a linearly growing trajectory from lo to hi occupancy.
func ramp(n, lo, hi int) []workload.BacklogSample {
	out := make([]workload.BacklogSample, n)
	for i := range out {
		out[i] = workload.BacklogSample{
			T:       sim.Time(i + 1),
			Pending: lo + (hi-lo)*i/(n-1),
		}
	}
	return out
}

func TestCriterionSustainable(t *testing.T) {
	v := Evaluate(stormResult(100_000, 0, 0.5, flat(40, 3)))
	if v.Saturated {
		t.Fatalf("clean run judged saturated: %v", v)
	}
	if len(v.Reasons) != 0 {
		t.Fatalf("reasons on a sustainable run: %v", v.Reasons)
	}
}

func TestCriterionDropSignal(t *testing.T) {
	v := Evaluate(stormResult(100_000, 5_000, 0.5, flat(40, 3)))
	if !v.Saturated || !reflect.DeepEqual(v.Reasons, []string{"drops"}) {
		t.Fatalf("5%% drops: %v", v)
	}
	if v.DropFrac != 0.05 {
		t.Fatalf("drop frac = %v, want 0.05", v.DropFrac)
	}
	// Exactly at the threshold is sustainable: the criterion is strict.
	v = Evaluate(stormResult(100_000, 1_000, 0.5, flat(40, 3)))
	if v.Saturated {
		t.Fatalf("drops exactly at 1%% judged saturated: %v", v)
	}
}

func TestCriterionCPUSignal(t *testing.T) {
	v := Evaluate(stormResult(100_000, 0, 0.95, flat(40, 3)))
	if !v.Saturated || !reflect.DeepEqual(v.Reasons, []string{"cpu"}) {
		t.Fatalf("5%% cpu available: %v", v)
	}
	if v.CPUAvail < 0.049 || v.CPUAvail > 0.051 {
		t.Fatalf("cpu avail = %v, want ~0.05", v.CPUAvail)
	}
}

func TestCriterionBacklogGrowthSignal(t *testing.T) {
	// Early quarter ~5, late quarter ~120: floor and factor both satisfied.
	v := Evaluate(stormResult(100_000, 0, 0.5, ramp(40, 0, 128)))
	if !v.Saturated || !reflect.DeepEqual(v.Reasons, []string{"backlog"}) {
		t.Fatalf("growing backlog: %v", v)
	}
	// High but flat occupancy must NOT fire: no growth, just a busy ring.
	v = Evaluate(stormResult(100_000, 0, 0.5, flat(40, 120)))
	if v.Saturated {
		t.Fatalf("flat 120-occupancy judged saturated: %v", v)
	}
	// Growth below the floor must not fire (2 -> 20 packets).
	v = Evaluate(stormResult(100_000, 0, 0.5, ramp(40, 2, 20)))
	if v.Saturated {
		t.Fatalf("sub-floor growth judged saturated: %v", v)
	}
}

func TestCriterionMergedTrajectorySegments(t *testing.T) {
	// Two concatenated replicas (time resets between them), each growing:
	// the splitter must see two segments and still fire.
	merged := append(ramp(40, 0, 128), ramp(40, 0, 128)...)
	v := Evaluate(stormResult(100_000, 0, 0.5, merged))
	if !v.Saturated || !reflect.DeepEqual(v.Reasons, []string{"backlog"}) {
		t.Fatalf("merged growing replicas: %v", v)
	}
	// One growing replica diluted by three idle ones: per-segment averaging
	// halves the late mean (128-cap ramp late mean ~120 / 4 segments = ~30),
	// below the 96 floor — growth in a minority of replicas is suspicious
	// but not saturation.
	diluted := append(ramp(40, 0, 128), flat(120, 0)...)
	v = Evaluate(stormResult(100_000, 0, 0.5, diluted))
	if v.Saturated {
		t.Fatalf("one growing replica among idle ones judged saturated: %v", v)
	}
}

func TestCriterionMultipleReasonsStableOrder(t *testing.T) {
	v := Evaluate(stormResult(100_000, 50_000, 0.95, ramp(40, 0, 128)))
	if !reflect.DeepEqual(v.Reasons, []string{"drops", "cpu", "backlog"}) {
		t.Fatalf("reasons = %v, want stable [drops cpu backlog]", v.Reasons)
	}
}

func TestCriterionEmptyBacklogAndZeroOffered(t *testing.T) {
	v := Evaluate(stormResult(0, 0, 0.5, nil))
	if v.Saturated {
		t.Fatalf("empty run judged saturated: %v", v)
	}
	if v.DropFrac != 0 || v.BacklogEarly != 0 || v.BacklogLate != 0 {
		t.Fatalf("empty-run signals nonzero: %v", v)
	}
}

func TestCriterionPanicsWithoutStormStats(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Evaluate without storm stats should panic")
		}
	}()
	Evaluate(&core.Result{})
}

// steps builds a 40-sample trajectory whose early quarter sits at early
// packets and whose late quarter sits at late packets.
func steps(early, late int) []workload.BacklogSample {
	out := flat(40, early)
	for i := 20; i < 40; i++ {
		out[i].Pending = late
	}
	return out
}

// TestCriterionNormalizedDefaults pins each of Evaluate's four thresholds
// at its boundary: more than 1% drops, less than 10% CPU available, and a
// late backlog of at least 96 packets and at least 4x the early one.
func TestCriterionNormalizedDefaults(t *testing.T) {
	const observed = 1 << 30
	// 1 - 966367641/2^30 is just above 0.10; one more busy cycle is below.
	const busyAt10 = 966367641
	for _, tc := range []struct {
		name string
		res  *core.Result
		want []string
	}{
		{"drops at 1%", stormResult(100_000, 1_000, 0.5, flat(40, 3)), nil},
		{"drops past 1%", stormResult(100_000, 1_001, 0.5, flat(40, 3)), []string{"drops"}},
		{"cpu at 10%", stormResult(100_000, 0, busyAt10/float64(observed), flat(40, 3)), nil},
		{"cpu under 10%", stormResult(100_000, 0, (busyAt10+1)/float64(observed), flat(40, 3)), []string{"cpu"}},
		{"backlog under the floor", stormResult(100_000, 0, 0.5, steps(0, 95)), nil},
		{"backlog at the floor", stormResult(100_000, 0, 0.5, steps(0, 96)), []string{"backlog"}},
		{"backlog under 4x", stormResult(100_000, 0, 0.5, steps(30, 119)), nil},
		{"backlog at 4x", stormResult(100_000, 0, 0.5, steps(30, 120)), []string{"backlog"}},
	} {
		v := Evaluate(tc.res)
		if v.Saturated != (tc.want != nil) || !reflect.DeepEqual(v.Reasons, tc.want) {
			t.Errorf("%s: %v, want reasons %v", tc.name, v, tc.want)
		}
	}
}
