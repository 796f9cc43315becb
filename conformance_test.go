// Paper-conformance test suite: a short parallel measurement campaign at a
// fixed seed, with the paper's shape invariants (DESIGN.md §5) asserted as
// tier-1 tests. The campaign runs through internal/campaign at the default
// worker count, so this suite also exercises the parallel runner end to
// end: the invariants must hold — and hold identically — no matter how
// many workers execute the cells.
//
// Invariants under test (Figure 4, Table 3, §4.1, §4.2, §5.1):
//
//   - NT-RT28 ≈ NT-DPC, both bounded below the 3 ms modem slack (§5.1:
//     the paper forgoes the NT MTTF analysis because every NT worst case
//     sits under the slack).
//   - NT-DPC ≪ Win98-DPC ≪ Win98-RT-thread on the worst stress class
//     (3D games).
//   - NT RT-24 roughly an order of magnitude worse than RT-28: the WDM
//     work-item worker runs at priority 24, so a measurement thread at the
//     same priority absorbs work-item bursts (§4.1/§4.2).
//   - Throughput deltas stay within ~20% while latency differs by ≥10×
//     (§4.2: "the two systems perform within 10% of each other on
//     throughput ... while differing by orders of magnitude in latency").
//   - A soft modem, audio mixer and video capture task set is
//     schedulable on NT and infeasible on Windows 98 once the games
//     pseudo worst case is its blocking term (§5.2).
package wdmlat_test

import (
	"testing"
	"time"

	"wdmlat/internal/campaign"
	"wdmlat/internal/core"
	"wdmlat/internal/ospersona"
	"wdmlat/internal/rma"
	"wdmlat/internal/sim"
	"wdmlat/internal/workload"
)

// Fixed campaign geometry: every threshold below was calibrated at this
// seed, duration and replica count — change one and the thresholds must be
// re-derived.
const (
	conformanceSeed = 7
	conformanceDur  = 3 * time.Minute
	conformanceRuns = 2
)

func TestPaperConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("conformance campaign is a few seconds of simulation; skipped in -short")
	}
	oses := []ospersona.OS{ospersona.NT4, ospersona.Win98}

	run := campaign.New(campaign.Options{BaseSeed: conformanceSeed})
	byOS, err := run.RunMatrix(oses, workload.Classes, "conformance",
		core.RunConfig{Duration: conformanceDur}, conformanceRuns)
	if err != nil {
		t.Fatal(err)
	}

	// Worst-case latencies in milliseconds, per OS × class.
	dpc := map[ospersona.OS]map[workload.Class]float64{}
	t28 := map[ospersona.OS]map[workload.Class]float64{}
	t24 := map[ospersona.OS]map[workload.Class]float64{}
	hwThread := map[ospersona.OS]map[workload.Class]float64{}
	for _, o := range oses {
		dpc[o] = map[workload.Class]float64{}
		t28[o] = map[workload.Class]float64{}
		t24[o] = map[workload.Class]float64{}
		hwThread[o] = map[workload.Class]float64{}
		for _, c := range workload.Classes {
			r := byOS[o][c]
			if r.Samples == 0 {
				t.Fatalf("%s/%s: no samples collected", o, c)
			}
			dpc[o][c] = r.Freq.Millis(r.DpcInt.Max())
			t28[o][c] = r.Freq.Millis(r.Thread[r.HighPriority()].Max())
			t24[o][c] = r.Freq.Millis(r.Thread[r.MediumPriority()].Max())
			hwThread[o][c] = r.Freq.Millis(r.HwToThread[r.HighPriority()].Max())
			t.Logf("%s/%s: dpc %.2f, t28 %.2f, t24 %.2f, hw->t28 %.2f ms",
				campaign.OSSlug(o), campaign.ClassSlug(c),
				dpc[o][c], t28[o][c], t24[o][c], hwThread[o][c])
		}
	}

	t.Run("NTBelowModemSlack", func(t *testing.T) {
		// §5.1: every NT service level the paper measures stays under the
		// 3 ms slack of a 16 ms softmodem cycle; NT-RT28 ≈ NT-DPC in the
		// sense that both live in the same sub-slack band, with the thread
		// path no slower than the DPC path's envelope.
		for _, c := range workload.Classes {
			if dpc[ospersona.NT4][c] >= 3 {
				t.Errorf("%s: NT DPC worst %.2f ms, want < 3 ms", c, dpc[ospersona.NT4][c])
			}
			if t28[ospersona.NT4][c] >= 3 {
				t.Errorf("%s: NT RT-28 worst %.2f ms, want < 3 ms", c, t28[ospersona.NT4][c])
			}
			if t28[ospersona.NT4][c] > 2*dpc[ospersona.NT4][c] {
				t.Errorf("%s: NT RT-28 worst %.2f ms not ≈ NT DPC worst %.2f ms",
					c, t28[ospersona.NT4][c], dpc[ospersona.NT4][c])
			}
		}
	})

	t.Run("OrderingChain", func(t *testing.T) {
		// Figure 4 / Table 3 ordering on the worst class (3D games):
		// NT-DPC ≪ Win98-DPC ≪ Win98-RT-thread.
		g := workload.Games
		if w98, nt := dpc[ospersona.Win98][g], dpc[ospersona.NT4][g]; w98 < 2*nt {
			t.Errorf("games: Win98 DPC worst %.2f ms not ≫ NT DPC worst %.2f ms", w98, nt)
		}
		if th, d := hwThread[ospersona.Win98][g], dpc[ospersona.Win98][g]; th < 3*d {
			t.Errorf("games: Win98 RT-thread worst %.2f ms not ≫ Win98 DPC worst %.2f ms", th, d)
		}
		// And weakly across every class: the Win98 service levels never
		// undercut NT's, and the thread path never undercuts the DPC path.
		for _, c := range workload.Classes {
			if dpc[ospersona.Win98][c] < dpc[ospersona.NT4][c] {
				t.Errorf("%s: Win98 DPC worst %.2f ms below NT's %.2f ms",
					c, dpc[ospersona.Win98][c], dpc[ospersona.NT4][c])
			}
			if hwThread[ospersona.Win98][c] < dpc[ospersona.Win98][c] {
				t.Errorf("%s: Win98 RT-thread worst %.2f ms below Win98 DPC worst %.2f ms",
					c, hwThread[ospersona.Win98][c], dpc[ospersona.Win98][c])
			}
		}
	})

	t.Run("NTPriority24Cliff", func(t *testing.T) {
		// §4.1: the RT-24 measurement thread shares a priority with the
		// WDM work-item worker and eats its bursts — roughly an order of
		// magnitude worse than RT-28 on every class.
		for _, c := range workload.Classes {
			lo, hi := t28[ospersona.NT4][c], t24[ospersona.NT4][c]
			if hi < 5*lo {
				t.Errorf("%s: NT RT-24 worst %.2f ms not ≈10× RT-28 worst %.2f ms", c, hi, lo)
			}
		}
	})

	t.Run("ThroughputVsLatency", func(t *testing.T) {
		// §4.2: near-equal throughput, orders-of-magnitude latency gap.
		nt := core.RunThroughput(ospersona.NT4, 200, conformanceSeed)
		w98 := core.RunThroughput(ospersona.Win98, 200, conformanceSeed)
		delta := core.ThroughputDelta(nt, w98)
		t.Logf("throughput: NT %.2f, Win98 %.2f, delta %.1f%%", nt.Score(), w98.Score(), delta*100)
		if delta > 0.25 {
			t.Errorf("throughput delta %.1f%% exceeds the paper's ~20%% envelope", delta*100)
		}
		g := workload.Games
		if ratio := t28[ospersona.Win98][g] / t28[ospersona.NT4][g]; ratio < 10 {
			t.Errorf("games: Win98/NT RT-28 worst-case ratio %.1f, want ≥ 10×", ratio)
		}
	})

	t.Run("Sec52TaskSet", func(t *testing.T) {
		// §5.2: every task's blocking term is the games pseudo worst case
		// at one drop per hour. NT hosts the three tasks by ordinary
		// rate-monotonic analysis; on Windows 98 the blocking alone
		// overruns the modem's 8 ms deadline. Measured at this campaign's
		// settings: NT responses 3.4, 5.8 and 14.4 ms; Win98 blocking
		// 53.9 ms.
		for _, o := range oses {
			r := byOS[o][workload.Games]
			f := r.Freq
			task := func(name string, periodMS, share float64) rma.Task {
				period := f.FromMillis(periodMS)
				return rma.DesignTask(name, period, sim.Cycles(float64(period)*share),
					r.HwToThread[r.HighPriority()], r.UsageObserved(), f.Cycles(time.Hour))
			}
			tasks := []rma.Task{
				task("softmodem datapump", 8, 0.25),
				task("soft audio mixer", 16, 0.15),
				task("video capture", 33, 0.20),
			}
			t.Logf("%s: blocking %.1f ms", r.OSName, f.Millis(tasks[0].Blocking))
			res, ok, err := rma.Analyze(tasks)
			for _, x := range res {
				t.Logf("%s: %s response %.1f ms, meets=%v", r.OSName, x.Task.Name, f.Millis(x.Response), x.Meets)
			}
			switch {
			case o == ospersona.NT4 && (err != nil || !ok):
				t.Errorf("NT: task set not schedulable (%v)", err)
			case o == ospersona.Win98 && err == nil:
				t.Error("Win98: task set feasible; want the blocking alone to overrun a deadline")
			case err != nil:
				t.Logf("%s: %v", r.OSName, err)
			}
		}
	})
}
