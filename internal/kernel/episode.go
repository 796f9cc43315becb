package kernel

import (
	"fmt"

	"wdmlat/internal/cpu"
	"wdmlat/internal/sim"
)

// EpisodeKind selects what an overhead episode blocks. Episodes are the
// mechanism by which OS personalities inject the platform-specific latency
// sources the paper measures but cannot see the source of (§2.3, §4.4):
// interrupt-masked windows push out ISR entry; scheduler-locked windows
// push out thread dispatch while ISRs and DPCs keep running.
type EpisodeKind int

const (
	// MaskInterrupts models a CLI window / HIGH_LEVEL section: nothing
	// runs until it completes, and pending interrupts accumulate latency.
	MaskInterrupts EpisodeKind = iota
	// LockScheduler models a non-rescheduling region (Win98 VMM and
	// Win16-lock code paths, NT dispatcher lock): interrupts and DPCs
	// preempt it freely, but no thread context switch occurs until it
	// ends. This is the level that separates Win98 DPC latency (small)
	// from Win98 thread latency (huge) in Figure 4.
	LockScheduler
)

func (e EpisodeKind) String() string {
	switch e {
	case MaskInterrupts:
		return "mask-interrupts"
	case LockScheduler:
		return "lock-scheduler"
	default:
		return fmt.Sprintf("episode(%d)", int(e))
	}
}

func (e EpisodeKind) level() int {
	switch e {
	case MaskInterrupts:
		return levelIntMask
	case LockScheduler:
		return levelSchedLock
	default:
		panic("kernel: unknown episode kind")
	}
}

// InjectEpisode requests an overhead episode of the given kind and length,
// attributed to module/function (what the cause tool will sample if it
// catches the episode on-CPU). The episode starts as soon as the CPU
// occupancy level drops below the episode's level; episodes of one kind
// queue FIFO.
func (k *Kernel) InjectEpisode(kind EpisodeKind, duration sim.Cycles, module, function string) {
	if duration <= 0 {
		return
	}
	q := &k.maskQ
	switch kind {
	case MaskInterrupts:
		if duration > k.counters.MaxMaskEpisode {
			k.counters.MaxMaskEpisode = duration
		}
	case LockScheduler:
		if duration > k.counters.MaxLockEpisode {
			k.counters.MaxLockEpisode = duration
		}
		q = &k.lockQ
	}
	q.PushBack(pendingEpisode{
		level:    kind.level(),
		duration: duration,
		frame:    cpu.Frame{Module: module, Function: function},
	})
	k.maybeRun()
}

// PendingEpisodes returns the number of episodes waiting to start.
func (k *Kernel) PendingEpisodes() int { return k.maskQ.Len() + k.lockQ.Len() }

// startEpisode pushes a pending episode onto the occupancy stack.
func (k *Kernel) startEpisode(ep pendingEpisode) {
	k.counters.Episodes++
	act := k.newActivity()
	act.kind = actEpisode
	act.level = ep.level
	act.frame = ep.frame
	act.remaining = ep.duration
	k.occupy(act)
	// resumeTop (dispatch loop) schedules the completion.
}
