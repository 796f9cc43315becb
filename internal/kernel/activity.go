package kernel

import (
	"fmt"

	"wdmlat/internal/cpu"
	"wdmlat/internal/sim"
)

// activityKind discriminates what occupies the CPU above thread level.
type activityKind int

const (
	actISR activityKind = iota
	actDPC
	actEpisode
	actSwitch // context-switch cost, runs at levelSchedLock
)

func (k activityKind) String() string {
	switch k {
	case actISR:
		return "isr"
	case actDPC:
		return "dpc"
	case actEpisode:
		return "episode"
	case actSwitch:
		return "switch"
	default:
		return fmt.Sprintf("activity(%d)", int(k))
	}
}

// activity is a unit of CPU occupancy above thread level: an ISR execution,
// a DPC execution, an overhead episode, or a context switch. Activities
// stack: a higher-level activity suspends the one below and resumes it on
// completion. The running (top) activity has a completion event scheduled;
// suspended activities only carry their remaining work.
//
// Records are pooled on the owning kernel (newActivity/releaseActivity):
// activities are created and completed on every interrupt, DPC and context
// switch, so recycling them — together with the once-per-record fire
// closure — keeps the dispatch loop allocation-free.
type activity struct {
	kind       activityKind
	level      int
	frame      cpu.Frame
	remaining  sim.Cycles
	resumedAt  sim.Time   // when the activity last (re)started running
	done       *sim.Event // completion event while running
	onComplete func(now sim.Time)
	fire       func(now sim.Time) // completion callback; bound once per record
}

// suspend stops the running activity's clock: its completion event is
// cancelled and the elapsed run time is deducted from remaining work.
func (a *activity) suspend(eng *sim.Engine, now sim.Time) {
	if a.done == nil {
		return // already suspended
	}
	eng.Cancel(a.done)
	a.done = nil
	elapsed := now.Sub(a.resumedAt)
	if elapsed > a.remaining {
		elapsed = a.remaining
	}
	a.remaining -= elapsed
}

// pendingEpisode is an overhead episode requested while the CPU was busy at
// or above its level; it is admitted by the dispatch loop as soon as the
// occupancy drops.
type pendingEpisode struct {
	level    int
	duration sim.Cycles
	frame    cpu.Frame
}
