package kernel_test

import (
	"testing"

	"wdmlat/internal/cpu"
	"wdmlat/internal/kernel"
	"wdmlat/internal/sim"
)

// BenchmarkStepContextSwitch is the step-body twin of the repository
// root's BenchmarkKernelContextSwitch (which drives the CreateThread
// adapter): two equal-priority step bodies ping-pong on a pair of events,
// so each engine step is part of a full simulated wait/wake/switch round
// trip with no goroutine handoff.
func BenchmarkStepContextSwitch(b *testing.B) {
	eng := sim.NewEngine(1)
	k := kernel.New(eng, cpu.New(eng, sim.DefaultFreq), kernel.Config{Name: "bench"})
	k.Boot(32, 300_000)
	defer k.Shutdown()
	ping := k.NewEvent("ping", kernel.SynchronizationEvent)
	pong := k.NewEvent("pong", kernel.SynchronizationEvent)
	woke := false // a: wait for ping, then set pong
	k.CreateStepThread("a", 20, func(tc *kernel.ThreadContext) {
		if woke = !woke; woke {
			tc.Wait(ping)
		} else {
			tc.SetEvent(pong)
		}
	})
	set := false // b: set ping, then wait for pong
	k.CreateStepThread("b", 20, func(tc *kernel.ThreadContext) {
		if set = !set; set {
			tc.SetEvent(ping)
		} else {
			tc.Wait(pong)
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}
