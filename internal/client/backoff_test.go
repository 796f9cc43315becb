package client

// Pins the shared equal-jitter schedule exactly. Client.do, Client.Watch
// and the fleet worker loop all retry through Client.backoff, so a change
// to this schedule changes the retry pressure every consumer puts on the
// service — it must be a deliberate edit here, never drift.

import (
	"testing"
	"time"
)

// TestBackoffExactEqualJitterSchedule: with Rand pinned to its extremes,
// attempt n's delay is exactly [d/2, d] for d = min(100ms·2ⁿ, 5s).
func TestBackoffExactEqualJitterSchedule(t *testing.T) {
	wantCeil := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, 1600 * time.Millisecond, 3200 * time.Millisecond,
		5 * time.Second, 5 * time.Second, // capped forever after
	}
	ceil := New("", Options{Rand: func() float64 { return 1 }})
	floor := New("", Options{Rand: func() float64 { return 0 }})
	for n, want := range wantCeil {
		if got := ceil.backoff(n, 0); got != want {
			t.Errorf("attempt %d ceiling = %v, want %v", n, got, want)
		}
		if got := floor.backoff(n, 0); got != want/2 {
			t.Errorf("attempt %d floor = %v, want %v (half the window, never ~0)", n, got, want/2)
		}
	}
}

// TestBackoffShiftOverflowCapsAtMax: attempt counts large enough to shift
// the base out of range still return the cap, not zero or a negative delay.
func TestBackoffShiftOverflowCapsAtMax(t *testing.T) {
	c := New("", Options{Rand: func() float64 { return 1 }})
	for _, n := range []int{40, 63, 64, 200} {
		if got := c.backoff(n, 0); got != 5*time.Second {
			t.Errorf("attempt %d = %v, want the 5s cap", n, got)
		}
	}
}

// TestBackoffRetryAfterIsAFloorAtAttemptZero: attempt 0's jittered window
// is [Base/2, Base]; an explicit Retry-After longer than the drawn delay
// replaces it exactly, and a shorter one is ignored — the server hint is a
// floor, never a discount.
func TestBackoffRetryAfterIsAFloorAtAttemptZero(t *testing.T) {
	c := New("", Options{Rand: func() float64 { return 1 }})
	// Hint above the window: returned verbatim.
	if got := c.backoff(0, 3*time.Second); got != 3*time.Second {
		t.Errorf("backoff(0, 3s) = %v, want exactly 3s", got)
	}
	// Hint inside the window (jitter drew the 100ms ceiling): ignored.
	if got := c.backoff(0, 80*time.Millisecond); got != 100*time.Millisecond {
		t.Errorf("backoff(0, 80ms) = %v, want the drawn 100ms", got)
	}
	// Hint exactly at the drawn delay: unchanged (strictly-greater raises).
	if got := c.backoff(0, 100*time.Millisecond); got != 100*time.Millisecond {
		t.Errorf("backoff(0, 100ms) = %v, want 100ms", got)
	}
	// The floor also applies deep into the schedule, past the cap.
	if got := c.backoff(10, 10*time.Second); got != 10*time.Second {
		t.Errorf("backoff(10, 10s) = %v, want 10s", got)
	}
}

// TestBackoffNilRandDefaults: a zero-value Rand falls back to math/rand
// and stays within the equal-jitter window.
func TestBackoffNilRandDefaults(t *testing.T) {
	c := New("", Options{})
	for i := 0; i < 100; i++ {
		if d := c.backoff(0, 0); d < 50*time.Millisecond || d > 100*time.Millisecond {
			t.Fatalf("backoff(0,0) = %v, want within [50ms, 100ms]", d)
		}
	}
}
