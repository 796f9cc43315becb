package workload_test

import (
	"runtime"
	"testing"

	"wdmlat/internal/latdriver"
	"wdmlat/internal/modem"
	"wdmlat/internal/ospersona"
	"wdmlat/internal/workload"
)

// TestProductionMachinesStartNoGoroutines pins that every kernel thread of
// a loaded machine — the latency tool's measurement threads, the work-item
// worker, each workload class's application, the sound pipeline's mixer,
// a thread-based modem pump and the frame-pacing task — is a step body run
// on the caller's goroutine: building and running the machine starts no
// goroutine.
func TestProductionMachinesStartNoGoroutines(t *testing.T) {
	for _, os := range []ospersona.OS{ospersona.NT4, ospersona.Win98} {
		for _, class := range workload.Classes {
			before := runtime.NumGoroutine()
			m := ospersona.Build(os, ospersona.Options{Seed: 1})
			tool, err := latdriver.Install(m.Kernel, m.PIT, latdriver.Options{
				HookTimerISR: m.Profile.SupportsLegacyTimerHook,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := tool.Start(); err != nil {
				t.Fatal(err)
			}
			workload.New(class, m).Start()
			if class == workload.Business || class == workload.Workstation {
				// Games and Web start the sound pipeline themselves.
				m.StartAudio(ospersona.AudioConfig{})
			}
			modem.Attach(m.Kernel, modem.Config{Modality: modem.ThreadBased}).Start()
			m.StartFramePacing(ospersona.PacingConfig{})
			m.RunFor(m.MS(200))
			after := runtime.NumGoroutine()
			_, mixed := m.AudioStats()
			m.Shutdown()
			if after != before {
				t.Errorf("%v/%v: %d goroutines after RunFor, %d before Build", os, class, after, before)
			}
			if tool.Samples() == 0 || mixed == 0 {
				t.Errorf("%v/%v: machine did not run (%d samples, %d buffers mixed)", os, class, tool.Samples(), mixed)
			}
		}
	}
}
