package sim

import (
	"testing"
	"time"
)

func TestEngineFiresInTimestampOrder(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.At(30, "c", func(Time) { order = append(order, 3) })
	e.At(10, "a", func(Time) { order = append(order, 1) })
	e.At(20, "b", func(Time) { order = append(order, 2) })
	e.Drain(10)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("fired out of order: %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %d, want 30", e.Now())
	}
}

func TestEngineFIFOAtSameTimestamp(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(5, "same", func(Time) { order = append(order, i) })
	}
	e.Drain(200)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-timestamp events fired out of FIFO order at %d: %v", i, order[:i+1])
		}
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.At(10, "x", func(Time) { fired = true })
	if !ev.Pending() {
		t.Fatal("event should be pending")
	}
	if !e.Cancel(ev) {
		t.Fatal("first cancel should succeed")
	}
	if e.Cancel(ev) {
		t.Fatal("second cancel should fail")
	}
	e.Drain(10)
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestEngineCancelMiddleOfHeap(t *testing.T) {
	e := NewEngine(1)
	var fired []int
	evs := make([]*Event, 10)
	for i := 0; i < 10; i++ {
		i := i
		evs[i] = e.At(Time(i*10), "n", func(Time) { fired = append(fired, i) })
	}
	e.Cancel(evs[4])
	e.Cancel(evs[7])
	e.Drain(20)
	want := []int{0, 1, 2, 3, 5, 6, 8, 9}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}

func TestEngineReschedule(t *testing.T) {
	e := NewEngine(1)
	var at Time
	ev := e.At(10, "x", func(now Time) { at = now })
	e.Reschedule(ev, 50)
	e.Drain(10)
	if at != 50 {
		t.Fatalf("fired at %d, want 50", at)
	}
}

func TestEngineRescheduleFiredEventPanics(t *testing.T) {
	e := NewEngine(1)
	ev := e.At(10, "x", func(Time) {})
	e.Drain(10)
	defer func() {
		if recover() == nil {
			t.Fatal("rescheduling a fired (recycled) event should panic")
		}
	}()
	e.Reschedule(ev, 80)
}

func TestEngineCancelThenReschedulePanics(t *testing.T) {
	e := NewEngine(1)
	ev := e.At(10, "x", func(Time) {})
	if !e.Cancel(ev) {
		t.Fatal("cancel should succeed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("rescheduling a cancelled (recycled) event should panic")
		}
	}()
	e.Reschedule(ev, 80)
}

// TestEngineFIFOUnderPooling exercises same-timestamp FIFO ordering across
// several schedule/fire generations so that every later generation is
// served entirely from recycled records.
func TestEngineFIFOUnderPooling(t *testing.T) {
	e := NewEngine(1)
	for gen := 0; gen < 5; gen++ {
		var order []int
		base := e.Now() + 10
		evs := make([]*Event, 50)
		for i := 0; i < 50; i++ {
			i := i
			evs[i] = e.At(base, "same", func(Time) { order = append(order, i) })
		}
		// Cancel a few mid-queue so their records recycle ahead of the rest.
		e.Cancel(evs[10])
		e.Cancel(evs[20])
		e.RunUntil(base)
		want := 0
		for _, v := range order {
			if v == 10 || v == 20 {
				t.Fatalf("gen %d: cancelled event %d fired", gen, v)
			}
			for want == 10 || want == 20 {
				want++
			}
			if v != want {
				t.Fatalf("gen %d: fired %v, want FIFO without 10,20", gen, order)
			}
			want++
		}
		if len(order) != 48 {
			t.Fatalf("gen %d: fired %d events, want 48", gen, len(order))
		}
	}
}

// TestEngineSteadyStateAllocFree verifies the zero-allocation contract:
// once the pool is warm, the schedule-fire cycle performs no heap
// allocation, and neither does Cancel+After churn.
func TestEngineSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed by the race detector")
	}
	e := NewEngine(1)
	var tick func(Time)
	tick = func(Time) { e.After(100, "tick", tick) }
	e.After(100, "tick", tick)
	for i := 0; i < 1000; i++ { // warm up pool and heap slice
		e.Step()
	}
	if avg := testing.AllocsPerRun(1000, func() { e.Step() }); avg != 0 {
		t.Fatalf("steady-state After+Step allocates %v allocs/op, want 0", avg)
	}
	// Cancel/re-schedule churn must be allocation-free too.
	evs := make([]*Event, 64)
	for i := range evs {
		evs[i] = e.After(Cycles(1000+i), "churn", func(Time) {})
	}
	if avg := testing.AllocsPerRun(1000, func() {
		for i := range evs {
			e.Cancel(evs[i])
		}
		for i := range evs {
			evs[i] = e.After(Cycles(1000+i), "churn", func(Time) {})
		}
	}); avg != 0 {
		t.Fatalf("steady-state Cancel+After allocates %v allocs/op, want 0", avg)
	}
}

// TestWheelSteadyStateAllocFree pins the zero-allocation contract with near
// and far events pending together: a short tick, a mid-range period and
// one ~14 s ahead (255<<24 cycles at 300 MHz). The name dates from the
// timing wheel that used to sit in front of the heap (DESIGN.md §7.2),
// whose level 0, two-level cascade and overflow heap these periods hit.
// Once the pool and heap slice are warm, neither Step nor batched RunUntil
// may allocate.
func TestWheelSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed by the race detector")
	}
	e := NewEngine(1)
	var tick, slow, far func(Time)
	tick = func(Time) { e.After(100, "tick", tick) }
	slow = func(Time) { e.After(70_000, "slow", slow) }
	far = func(Time) { e.After(255<<24+5, "far", far) }
	e.After(100, "tick", tick)
	e.After(70_000, "slow", slow)
	e.After(255<<24+5, "far", far)
	for i := 0; i < 2000; i++ { // warm up pool and heap slice
		e.Step()
	}
	if avg := testing.AllocsPerRun(2000, func() { e.Step() }); avg != 0 {
		t.Fatalf("steady-state Step allocates %v allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() { e.RunUntil(e.Now().Add(5_000)) }); avg != 0 {
		t.Fatalf("steady-state RunUntil allocates %v allocs/op, want 0", avg)
	}
}

func TestEngineRunUntilAdvancesClockPastLastEvent(t *testing.T) {
	e := NewEngine(1)
	e.At(10, "x", func(Time) {})
	e.RunUntil(100)
	if e.Now() != 100 {
		t.Fatalf("clock = %d, want 100", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d, want 0", e.Pending())
	}
}

func TestEngineEventsScheduledDuringEvent(t *testing.T) {
	e := NewEngine(1)
	var hits []Time
	e.At(10, "outer", func(now Time) {
		e.After(5, "inner", func(now Time) { hits = append(hits, now) })
	})
	e.RunUntil(100)
	if len(hits) != 1 || hits[0] != 15 {
		t.Fatalf("inner event hits = %v, want [15]", hits)
	}
}

// TestEngineCancelDuringBatch cancels a later same-instant event from
// inside an earlier callback of the same RunUntil: the victim must not
// fire, and the run must carry on past the hole.
func TestEngineCancelDuringBatch(t *testing.T) {
	e := NewEngine(1)
	var fired []int
	evs := make([]*Event, 5)
	for i := range evs {
		i := i
		evs[i] = e.At(10, "batch", func(Time) {
			fired = append(fired, i)
			if i == 0 {
				if !e.Cancel(evs[3]) {
					t.Fatal("mid-batch cancel of a pending same-instant event failed")
				}
			}
		})
	}
	e.RunUntil(10)
	want := []int{0, 1, 2, 4}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d, want 0", e.Pending())
	}
}

// TestEngineSameInstantScheduleDuringBatch schedules at the current instant
// from inside a callback: the child (and its own grandchild) must fire
// within the same RunUntil call, after the previously queued events, in
// seq order.
func TestEngineSameInstantScheduleDuringBatch(t *testing.T) {
	e := NewEngine(1)
	var fired []string
	e.At(10, "a", func(now Time) {
		fired = append(fired, "a")
		e.At(now, "child", func(cn Time) {
			fired = append(fired, "child")
			e.At(cn, "grandchild", func(Time) {
				fired = append(fired, "grandchild")
			})
		})
	})
	e.At(10, "b", func(Time) { fired = append(fired, "b") })
	e.RunUntil(10)
	want := []string{"a", "b", "child", "grandchild"}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
	if e.Now() != 10 || e.Pending() != 0 {
		t.Fatalf("now = %d pending = %d, want 10 and 0", e.Now(), e.Pending())
	}
}

// TestEngineRunUntilBoundary checks the inclusive edge: RunUntil(t) fires
// events at exactly t but nothing one cycle later.
func TestEngineRunUntilBoundary(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	e.At(100, "at", func(now Time) { fired = append(fired, now) })
	e.At(101, "after", func(now Time) { fired = append(fired, now) })
	e.RunUntil(100)
	if len(fired) != 1 || fired[0] != 100 {
		t.Fatalf("after RunUntil(100): fired %v, want [100]", fired)
	}
	if e.Now() != 100 || e.Pending() != 1 {
		t.Fatalf("now = %d pending = %d, want 100 and 1", e.Now(), e.Pending())
	}
	e.RunUntil(101)
	if len(fired) != 2 || fired[1] != 101 {
		t.Fatalf("after RunUntil(101): fired %v, want [100 101]", fired)
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := NewEngine(1)
	e.At(10, "x", func(Time) {})
	e.RunUntil(20)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past should panic")
		}
	}()
	e.At(5, "past", func(Time) {})
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay should panic")
		}
	}()
	e.After(-1, "neg", func(Time) {})
}

func TestEngineDeterminism(t *testing.T) {
	run := func() []uint64 {
		e := NewEngine(42)
		var draws []uint64
		var tick func(Time)
		n := 0
		tick = func(Time) {
			draws = append(draws, e.RNG().Uint64())
			n++
			if n < 50 {
				e.After(Cycles(e.RNG().Intn(100)+1), "tick", tick)
			}
		}
		e.After(1, "tick", tick)
		e.RunUntil(1 << 40)
		return draws
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at draw %d", i)
		}
	}
}

func TestFreqConversions(t *testing.T) {
	f := DefaultFreq // 300 MHz
	if c := f.Cycles(time.Millisecond); c != 300_000 {
		t.Fatalf("1ms = %d cycles, want 300000", c)
	}
	if d := f.Duration(300_000); d != time.Millisecond {
		t.Fatalf("300000 cycles = %v, want 1ms", d)
	}
	if ms := f.Millis(450_000); ms != 1.5 {
		t.Fatalf("450000 cycles = %v ms, want 1.5", ms)
	}
	if c := f.FromMillis(2.0); c != 600_000 {
		t.Fatalf("2ms = %d cycles, want 600000", c)
	}
	// Round trip across a long duration (1 hour) must be exact at 300 MHz.
	if d := f.Duration(f.Cycles(time.Hour)); d != time.Hour {
		t.Fatalf("1h round trip = %v", d)
	}
}

func TestFreqString(t *testing.T) {
	cases := map[Freq]string{
		300_000_000:   "300 MHz",
		1_000_000_000: "1 GHz",
		1_000:         "1 kHz",
		60:            "60 Hz",
	}
	for f, want := range cases {
		if got := f.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int64(f), got, want)
		}
	}
}

func TestTimeArithmetic(t *testing.T) {
	a := Time(100)
	b := a.Add(50)
	if b != 150 {
		t.Fatalf("Add: %d", b)
	}
	if b.Sub(a) != 50 {
		t.Fatalf("Sub: %d", b.Sub(a))
	}
	if !a.Before(b) || !b.After(a) {
		t.Fatal("Before/After inconsistent")
	}
}

func TestDrainLimitPanics(t *testing.T) {
	e := NewEngine(1)
	var tick func(Time)
	tick = func(Time) { e.After(1, "tick", tick) }
	e.After(1, "tick", tick)
	defer func() {
		if recover() == nil {
			t.Fatal("Drain on a self-perpetuating queue should panic at the limit")
		}
	}()
	e.Drain(100)
}

func TestEngineCounters(t *testing.T) {
	e := NewEngine(1)
	e.At(10, "a", func(Time) {})
	e.At(20, "b", func(Time) {})
	if e.Pending() != 2 {
		t.Fatalf("pending = %d", e.Pending())
	}
	e.RunUntil(15)
	if e.Fired() != 1 || e.Pending() != 1 {
		t.Fatalf("fired=%d pending=%d", e.Fired(), e.Pending())
	}
}

func TestEventLabelAndWhen(t *testing.T) {
	e := NewEngine(1)
	ev := e.At(42, "my-label", func(Time) {})
	if ev.Label() != "my-label" || ev.When() != 42 {
		t.Fatalf("label=%q when=%d", ev.Label(), ev.When())
	}
	var nilEv *Event
	if nilEv.Label() != "" || nilEv.Pending() {
		t.Fatal("nil event accessors should be safe")
	}
}

func TestFreqMillisRoundTripProperty(t *testing.T) {
	f := DefaultFreq
	for _, ms := range []float64{0.001, 0.125, 1, 16, 33.3, 128, 5000} {
		c := f.FromMillis(ms)
		back := f.Millis(c)
		// Truncation to whole cycles costs at most one cycle: 1/300 µs.
		if diff := back - ms; diff > 1e-5 || diff < -1e-5 {
			t.Fatalf("round trip %v ms -> %d cycles -> %v ms", ms, c, back)
		}
	}
}
