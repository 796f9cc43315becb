package hw

import (
	"testing"

	"wdmlat/internal/sim"
)

// TestNICSustainedStormKeepsBackingBounded: under a continuous storm more
// than one ring's worth of packets arrives with no idle gap, and the
// driver drains slower than the wire delivers, so the ring never fully
// empties. The ring's backing must stay bounded by the ring capacity, not
// grow with every accepted packet.
func TestNICSustainedStormKeepsBackingBounded(t *testing.T) {
	eng := sim.NewEngine(1)
	const ringCap = 8
	n := NewNIC(eng, LineFunc(func() {}), ringCap, 10)
	// 100 packets at one per 10 cycles; the driver drains one per 25
	// cycles, so the ring saturates and stays non-empty throughout.
	n.DeliverBurst(100, 1500)
	var drained int
	var poll func(sim.Time)
	poll = func(sim.Time) {
		got := n.Drain(1)
		if got > 1 {
			t.Fatalf("Drain(1) removed %d packets", got)
		}
		drained += got
		eng.After(25, poll)
	}
	eng.After(25, poll)
	eng.RunUntil(1000) // storm window: arrivals end at t=990

	if n.Pending() == 0 {
		t.Fatal("ring emptied mid-storm; the test no longer exercises the sustained case")
	}
	if n.Pending() > ringCap {
		t.Fatalf("pending %d exceeds ring capacity %d", n.Pending(), ringCap)
	}
	if n.ring.Cap() > 2*ringCap {
		t.Fatalf("backing capacity grew to %d for an %d-entry ring", n.ring.Cap(), ringCap)
	}
	if got := n.Delivered() + n.Dropped() + uint64(n.Pending()); got != 100 {
		t.Fatalf("delivered %d + dropped %d + pending %d = %d, want 100 offered",
			n.Delivered(), n.Dropped(), n.Pending(), got)
	}
	if n.Dropped() == 0 {
		t.Fatal("a storm faster than the drain rate must overflow the ring")
	}

	// Drain the remainder: the packets still in the ring arrived on the
	// wire's 10-cycle grid before t=1000, and leave oldest first.
	last := sim.Cycles(1000)
	for n.Pending() > 0 {
		want := min(4, n.Pending())
		waits := n.DrainTimed(4)
		if len(waits) != want {
			t.Fatalf("post-storm drain removed %d packets, want %d", len(waits), want)
		}
		for _, w := range waits {
			if w < 10 || w > last || w%10 != 0 {
				t.Fatalf("post-storm drain saw wait %d after %d, want a multiple of 10 in [10, %d]", w, last, last)
			}
			last = w
			drained++
		}
	}
	if uint64(drained) != n.Delivered() {
		t.Fatalf("drained %d packets, delivered counter says %d", drained, n.Delivered())
	}
}

func TestNICITRThrottlesAssertRate(t *testing.T) {
	eng := sim.NewEngine(1)
	var n *NIC
	asserts := 0
	// Driver: fully drain on every assertion.
	n = NewNIC(eng, LineFunc(func() {
		asserts++
		n.Drain(1 << 20)
	}), 64, 100)
	n.SetModeration(ModerateITR, 1000, 0, 0)
	// One packet every 100 cycles for 10k cycles: unthrottled this would be
	// ~100 assertions; a 1000-cycle ITR gap allows at most ~11.
	n.DeliverBurst(100, 1500)
	eng.RunUntil(10_100)
	if asserts < 9 || asserts > 12 {
		t.Fatalf("asserts = %d, want ~10 under a 1000-cycle ITR gap", asserts)
	}
	if n.Asserts() != uint64(asserts) {
		t.Fatalf("Asserts() = %d, line saw %d", n.Asserts(), asserts)
	}
	if n.Delivered() != 100 {
		t.Fatalf("delivered = %d, want 100", n.Delivered())
	}
}

func TestNICITRFirstAssertImmediateThenDeferred(t *testing.T) {
	eng := sim.NewEngine(1)
	var at []sim.Time
	n := NewNIC(eng, LineFunc(func() { at = append(at, eng.Now()) }), 64, 10)
	n.SetModeration(ModerateITR, 1000, 0, 0)
	eng.After(100, func(sim.Time) { n.Deliver(1500) })
	eng.RunUntil(150)
	if len(at) != 1 || at[0] != 100 {
		t.Fatalf("first packet should assert immediately: %v", at)
	}
	n.Drain(10)
	// Second packet lands inside the throttle window: the assertion must be
	// deferred to exactly lastAssert+gap.
	eng.After(150, func(sim.Time) { n.Deliver(1500) }) // arrives at t=300
	eng.RunUntil(2000)
	if len(at) != 2 {
		t.Fatalf("asserts = %v, want deferred second assert", at)
	}
	if at[1] != 1100 {
		t.Fatalf("throttled assert at %d, want 1100 (lastAssert 100 + gap 1000)", at[1])
	}
}

func TestNICAdaptiveGapWidensAndTightens(t *testing.T) {
	eng := sim.NewEngine(1)
	var n *NIC
	n = NewNIC(eng, LineFunc(func() { n.Drain(1 << 20) }), 256, 10)
	n.SetModeration(ModerateAdaptive, 0, 100, 10_000)
	if n.Gap() != 100 {
		t.Fatalf("adaptive gap starts at %d, want gapMin 100", n.Gap())
	}
	// Dense phase: one packet per cycle — every window is full, so the gap
	// must widen to the max bound (doubling per full window: the widening
	// gaps sum to ~23k cycles, well inside the 30k-cycle dense phase).
	n.InterPacketGap = 1
	n.DeliverBurst(30_000, 1500)
	eng.RunUntil(40_000)
	if n.Gap() != 10_000 {
		t.Fatalf("gap after dense phase = %d, want widened to 10000", n.Gap())
	}
	// Sparse phase: one packet per 20k cycles — windows carry one packet,
	// so the gap must tighten back to the min bound.
	n.InterPacketGap = 20_000
	n.DeliverBurst(20, 1500)
	eng.RunUntil(500_000)
	if n.Gap() != 100 {
		t.Fatalf("gap after sparse phase = %d, want tightened to 100", n.Gap())
	}
}

func TestNICDrainTimedReportsQueueingDelay(t *testing.T) {
	eng := sim.NewEngine(1)
	n := NewNIC(eng, LineFunc(func() {}), 64, 10)
	eng.After(100, func(sim.Time) { n.Deliver(1500) })
	eng.After(300, func(sim.Time) { n.Deliver(1500) })
	eng.RunUntil(500)
	waits := n.DrainTimed(10)
	if len(waits) != 2 || waits[0] != 400 || waits[1] != 200 {
		t.Fatalf("waits = %v, want [400 200]", waits)
	}
	if n.Delivered() != 2 || n.Pending() != 0 {
		t.Fatalf("delivered %d, pending %d after the drain, want 2 and 0", n.Delivered(), n.Pending())
	}
	if again := n.DrainTimed(10); len(again) != 0 {
		t.Fatalf("drain of an empty ring returned waits %v", again)
	}
}

func TestNICModerationValidation(t *testing.T) {
	eng := sim.NewEngine(1)
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s should panic", name)
			}
		}()
		fn()
	}
	n := NewNIC(eng, LineFunc(func() {}), 8, 10)
	mustPanic("zero ITR gap", func() { n.SetModeration(ModerateITR, 0, 0, 0) })
	mustPanic("inverted adaptive bounds", func() { n.SetModeration(ModerateAdaptive, 0, 100, 10) })
	mustPanic("unknown mode", func() { n.SetModeration(Moderation(99), 0, 0, 0) })
	n.Deliver(1500)
	mustPanic("mode change after traffic", func() { n.SetModeration(ModerateITR, 100, 0, 0) })
}

func TestModerationStrings(t *testing.T) {
	for m, want := range map[Moderation]string{
		ModeratePerWindow: "per-assert",
		ModerateITR:       "itr",
		ModerateAdaptive:  "adaptive",
	} {
		if got := m.String(); got != want {
			t.Fatalf("Moderation(%d).String() = %q, want %q", int(m), got, want)
		}
	}
}

func TestDisplayVBlanksAtExactPeriods(t *testing.T) {
	eng := sim.NewEngine(1)
	var at []sim.Time
	d := NewDisplay(eng, LineFunc(func() { at = append(at, eng.Now()) }))
	d.Start(16_700)
	eng.RunUntil(60_000)
	if len(at) != 3 {
		t.Fatalf("got %d vblanks, want 3", len(at))
	}
	for i, tm := range at {
		if want := sim.Time(16_700 * (i + 1)); tm != want {
			t.Fatalf("vblank %d at %d, want %d", i, tm, want)
		}
	}
	if d.VBlanks() != 3 {
		t.Fatalf("VBlanks = %d", d.VBlanks())
	}
	if d.NominalVBlankTime(2) != 33_400 {
		t.Fatalf("NominalVBlankTime(2) = %d", d.NominalVBlankTime(2))
	}
}

func TestDisplayStop(t *testing.T) {
	eng := sim.NewEngine(1)
	ticks := 0
	d := NewDisplay(eng, LineFunc(func() { ticks++ }))
	d.Start(1000)
	eng.RunUntil(3500)
	d.Stop()
	eng.RunUntil(10_000)
	if ticks != 3 {
		t.Fatalf("vblanks after stop = %d, want 3", ticks)
	}
}

func TestDisplayValidation(t *testing.T) {
	eng := sim.NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Fatal("Start(0) should panic")
		}
	}()
	NewDisplay(eng, LineFunc(func() {})).Start(0)
}
