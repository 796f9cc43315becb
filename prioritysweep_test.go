// Priority sweep: thread latency as a function of the measurement thread's
// real-time priority, on both operating systems. It extends the paper's
// two measurement priorities (28 and 24, §4.1) to the whole real-time band
// and shows the §4.2 mechanism as a cliff at the WDM work-item worker's
// priority (24): at or below it, NT's measurement thread absorbs
// work-item bursts; above it, NT is clean. Windows 98's scheduler-locked
// windows keep its worst case high on every priority.
package wdmlat_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"wdmlat/internal/campaign"
	"wdmlat/internal/core"
	"wdmlat/internal/ospersona"
	"wdmlat/internal/report"
	"wdmlat/internal/workload"
)

// TestPrioritySweepCliff runs one 3-minute Business cell per (priority,
// OS) at base seed 1, with the medium-priority measurement thread one
// below the high one, and logs the sweep table under -v.
//
// Thresholds, calibrated at this seed, duration and replica count (change
// one and they must be re-derived):
//
//   - NT's worst case at every priority ≥ 25 sits at least 20× below its
//     smallest worst case at ≤ 24. Measured: 0.26 ms at most above the
//     cliff, 9.97 ms at least below it, 38×.
//   - Win98's worst case at every priority ≥ 25 stays at least 5× above
//     NT's at the same priority. Measured: 8.8× at the least (2.02 against
//     0.23 ms at priority 29).
func TestPrioritySweepCliff(t *testing.T) {
	if testing.Short() {
		t.Skip("priority sweep is 18 simulated cells; skipped in -short")
	}
	const worker = 24 // the WDM work-item worker's priority
	prios := []int{17, 19, 21, 23, 24, 25, 27, 29, 31}
	oses := []ospersona.OS{ospersona.NT4, ospersona.Win98}
	wl := workload.Business
	key := func(o ospersona.OS, p int) string {
		return campaign.MatrixKey(o, wl, fmt.Sprintf("prio-%d", p))
	}

	run := campaign.New(campaign.Options{BaseSeed: 1})
	for _, p := range prios {
		for _, o := range oses {
			run.Submit(campaign.Cell{Key: campaign.ReplicaKey(key(o, p), 0), Config: core.RunConfig{
				OS:             o,
				Workload:       wl,
				Duration:       3 * time.Minute,
				HighPriority:   p,
				MediumPriority: p - 1,
			}})
		}
	}

	tab := &report.Table{
		Title: fmt.Sprintf("Thread latency vs real-time priority under %v (worst case, ms)\n"+
			"(the WDM work-item worker runs at priority %d — §4.2)", wl, worker),
		Headers: []string{"Priority", "NT 4.0 worst", "NT 4.0 p99.9", "Win98 worst", "Win98 p99.9"},
	}
	worst := map[ospersona.OS]map[int]float64{}
	for _, o := range oses {
		worst[o] = map[int]float64{}
	}
	for _, p := range prios {
		row := []string{fmt.Sprint(p)}
		for _, o := range oses {
			r, err := run.Merged(key(o, p), 1)
			if err != nil {
				t.Fatal(err)
			}
			h := r.Thread[p]
			worst[o][p] = r.Freq.Millis(h.Max())
			row = append(row,
				fmt.Sprintf("%.2f", worst[o][p]),
				fmt.Sprintf("%.2f", r.Freq.Millis(h.Quantile(0.999))))
		}
		tab.AddRow(row...)
	}
	var out strings.Builder
	if err := tab.Write(&out); err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", out.String())

	nt, w98 := worst[ospersona.NT4], worst[ospersona.Win98]
	floor, ceiling := nt[prios[0]], 0.0
	for _, p := range prios {
		if p <= worker {
			floor = min(floor, nt[p])
		} else {
			ceiling = max(ceiling, nt[p])
		}
	}
	if ceiling*20 > floor {
		t.Errorf("NT: worst case %.2f ms above priority %d, %.2f ms at or below it; want a ≥ 20× cliff",
			ceiling, worker, floor)
	}
	for _, p := range prios {
		if p > worker && w98[p] < 5*nt[p] {
			t.Errorf("priority %d: Win98 worst %.2f ms not ≥ 5× NT's %.2f ms", p, w98[p], nt[p])
		}
	}
}
