package main

import (
	"math"
	"sync"
	"time"
)

// clock is the generator's time source; tests substitute a fake one to
// check lateness accounting without sleeping.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// openLoop is an open-loop generator: operation i is due at start + i/rate
// no matter how the earlier ones fare, and fire starts it (fire must not
// block; it hands the operation to its own goroutine). It returns how late
// each operation was started against its due time — the generator's own
// lag, which the operation's latency, timed from the due time, also
// includes.
func openLoop(clk clock, start time.Time, rate float64, n int, fire func(i int, due time.Time)) []time.Duration {
	late := make([]time.Duration, n)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		clk.SleepUntil(due)
		late[i] = clk.Now().Sub(due)
		fire(i, due)
	}
	return late
}

// opLog collects the outcome of concurrently running operations.
type opLog struct {
	mu       sync.Mutex
	lat      []time.Duration // due time to result, successful operations only
	failures int
}

func (l *opLog) ok(d time.Duration) {
	l.mu.Lock()
	l.lat = append(l.lat, d)
	l.mu.Unlock()
}

func (l *opLog) fail() {
	l.mu.Lock()
	l.failures++
	l.mu.Unlock()
}

// latencies returns every operation's latency in milliseconds, a failed
// one counting as infinitely late: it misses any latency limit.
func (l *opLog) latencies() []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := msList(l.lat)
	for i := 0; i < l.failures; i++ {
		out = append(out, math.Inf(1))
	}
	return out
}

// finite maps +Inf, the latency of a failed operation, to the largest
// float JSON can carry.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}

// findMaxRate returns the highest rate that check passes (check runs the
// service at a rate and reports whether the latency limit held): a
// geometric ascent by factor from start until a step fails or the ceiling
// is passed, then bisect log-space bisection steps between the last pass
// and the first failure. It returns 0 when start itself fails.
func findMaxRate(check func(rate float64) bool, start, factor, ceiling float64, bisect int) float64 {
	if !check(start) {
		return 0
	}
	lo, hi := start, 0.0
	for r := start * factor; r <= ceiling; r *= factor {
		if !check(r) {
			hi = r
			break
		}
		lo = r
	}
	if hi == 0 {
		return lo
	}
	for i := 0; i < bisect; i++ {
		mid := math.Sqrt(lo * hi)
		if check(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
