// Softmodem: the §5.1 scenario end to end. A soft modem datapump (8 ms
// cycles, 25% CPU) runs inside a simulated Windows 98 playing a 3D game,
// once as a DPC and once as a high real-time priority thread, with
// different amounts of buffering. The DPC pump survives with far less
// buffering — the paper's reason why "many compute-intensive drivers will
// be forced to use DPCs on Windows 98".
//
// The periodic deadline-miss tool from the paper's future work (§6.1) runs
// alongside to validate the datapump's view.
package main

import (
	"fmt"
	"time"

	"wdmlat/internal/latdriver"
	"wdmlat/internal/modem"
	"wdmlat/internal/ospersona"
	"wdmlat/internal/sim"
	"wdmlat/internal/workload"
)

func main() {
	const cycleMS = 8
	fmt.Println("Soft modem datapump on Windows 98 while playing a 3D game (§5.1)")
	fmt.Printf("cycle %d ms, compute 25%% of cycle, 10 virtual minutes per configuration\n\n", cycleMS)
	fmt.Printf("%-14s %-9s %-16s %-10s %s\n", "modality", "buffers", "tolerance (ms)", "underruns", "MTTF")

	for _, modality := range []modem.Modality{modem.DPCBased, modem.ThreadBased} {
		for _, buffers := range []int{2, 3, 5, 7} {
			underruns, mttfs, ok := runOne(modality, buffers, cycleMS)
			mttfStr := "> run length"
			if ok {
				mttfStr = fmt.Sprintf("%.0f s", mttfs)
			}
			cfg := modem.Config{CycleMS: cycleMS, Buffers: buffers}
			fmt.Printf("%-14s %-9d %-16.0f %-10d %s\n",
				modality, buffers, cfg.ToleranceMS(), underruns, mttfStr)
		}
	}

	fmt.Println("\nPeriodic deadline-miss tool (§6.1 future work), thread modality, 8 ms period:")
	m := ospersona.Build(ospersona.Win98, ospersona.Options{Seed: 7})
	defer m.Shutdown()
	pt := modem.NewPeriodicTask(m.Kernel, "probe", m.MS(8), m.MS(2), modem.ThreadBased, 28)
	m.RunFor(m.Freq().Cycles(200 * time.Millisecond))
	gen := workload.New(workload.Games, m)
	gen.Start()
	m.Eng.After(m.MS(50), func(sim.Time) { pt.Start() })
	m.RunFor(m.Freq().Cycles(10 * time.Minute))
	fmt.Printf("  releases %d, completions %d, deadline misses %d (%.3f%%), worst lateness %.1f ms\n",
		pt.Releases(), pt.Completions(), pt.Misses(), pt.MissRate()*100,
		m.Freq().Millis(pt.MaxLateness()))
}

func runOne(modality modem.Modality, buffers int, cycleMS float64) (uint64, float64, bool) {
	m := ospersona.Build(ospersona.Win98, ospersona.Options{Seed: 7})
	defer m.Shutdown()
	// Measurement tool threads exist first, as in the paper's procedure.
	tool, err := latdriver.Install(m.Kernel, m.PIT, latdriver.Options{})
	if err != nil {
		panic(err)
	}
	if err := tool.Start(); err != nil {
		panic(err)
	}
	d := modem.Attach(m.Kernel, modem.Config{
		CycleMS:  cycleMS,
		Buffers:  buffers,
		Modality: modality,
	})
	m.RunFor(m.Freq().Cycles(200 * time.Millisecond))
	gen := workload.New(workload.Games, m)
	gen.Start()
	m.Eng.After(m.MS(50), func(sim.Time) { d.Start() })
	m.RunFor(m.Freq().Cycles(10 * time.Minute))
	mttfs, ok := d.MTTFSeconds()
	return d.Underruns(), mttfs, ok
}
