package sim

import (
	"fmt"
	"testing"
)

// BenchmarkEngineQueueDepth prices one dispatch and one schedule with a
// fixed number of events pending, in the mix the paper record makes. Each
// op fires the earliest event, whose callback schedules one replacement:
// three times in four at the current instant, ahead of every pending
// event (73.8% of the record's schedules land there), and otherwise at a
// random time within the span the pending events share. The simulated
// machines keep 5–10 events pending; the web cells' NIC bursts take the
// queue to about 100.
func BenchmarkEngineQueueDepth(b *testing.B) {
	for _, depth := range []int{4, 8, 16, 64, 128} {
		b.Run(fmt.Sprintf("pending=%d", depth), func(b *testing.B) {
			const span = 1 << 20
			rng := NewRNG(1)
			// A fixed table of delays keeps the draw out of the timing.
			var delays [1024]Cycles
			for i := range delays {
				if rng.Intn(4) == 0 {
					delays[i] = Cycles(1 + rng.Intn(span))
				}
			}
			e := NewEngine(1)
			n := 0
			var fire func(Time)
			fire = func(Time) {
				e.After(delays[n%len(delays)], fire)
				n++
			}
			for i := 0; i < depth; i++ {
				e.After(Cycles(1+rng.Intn(span)), fire)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		})
	}
}
