package hw

import (
	"fmt"

	"wdmlat/internal/sim"
)

// DiskRequest is one transfer submitted to the disk controller.
type DiskRequest struct {
	Bytes int
	Write bool
	// Tag is carried through to completion for the submitting driver.
	Tag any

	submitted sim.Time
	started   sim.Time
}

// Disk models the UDMA IDE drive of the test system (Maxtor DiamondMax,
// Table 2) behind a bus-master DMA controller: requests queue FIFO, each
// costs seek + rotational + transfer time, and completion asserts the IDE
// interrupt line. The controller executes one transfer at a time and
// starts the next only once the driver has acknowledged the last
// (CompleteTransfer). Requests travel by value, so the queue holds them
// inline and a steady stream of requests allocates nothing. Both OSes in
// the paper were explicitly configured for DMA rather than PIO (§3.2) —
// with PIO the transfer would burn CPU in the driver instead, which the
// PIO knob reproduces for ablation.
type Disk struct {
	eng  *sim.Engine
	rng  *sim.RNG
	line IRQLine

	// SeekTime is drawn per request that misses the "sequential" window.
	SeekTime sim.Dist
	// BytesPerCycle is the media+interface transfer rate.
	BytesPerCycle float64
	// PIO, when true, models programmed I/O: the transfer occupies the CPU
	// (reported via completion so the driver can charge it) instead of
	// overlapping with computation.
	PIO bool

	queue     sim.Queue[DiskRequest]
	cur       DiskRequest    // the transfer in flight, or awaiting acknowledgment
	busy      bool           // cur is in flight
	completed bool           // cur finished and awaits acknowledgment
	xferDone  func(sim.Time) // hoisted completion event (one transfer at a time)
	total     uint64
	totalWait sim.Cycles
}

// NewDisk creates a disk with the given service parameters asserting line
// on completion.
func NewDisk(eng *sim.Engine, line IRQLine, seek sim.Dist, bytesPerCycle float64) *Disk {
	if bytesPerCycle <= 0 {
		panic("hw: non-positive disk transfer rate")
	}
	d := &Disk{
		eng:           eng,
		rng:           eng.RNG().Split(),
		line:          line,
		SeekTime:      seek,
		BytesPerCycle: bytesPerCycle,
	}
	d.xferDone = func(sim.Time) {
		d.busy = false
		d.completed = true
		d.line.Assert()
	}
	return d
}

// Submit queues a transfer. The controller starts it immediately if idle.
func (d *Disk) Submit(req DiskRequest) {
	if req.Bytes <= 0 {
		panic("hw: invalid disk request")
	}
	req.submitted = d.eng.Now()
	d.queue.PushBack(req)
	d.kick()
}

// Transfers returns the number of completed transfers.
func (d *Disk) Transfers() uint64 { return d.total }

// MeanQueueWait returns the average submit-to-start wait in cycles.
func (d *Disk) MeanQueueWait() float64 {
	if d.total == 0 {
		return 0
	}
	return float64(d.totalWait) / float64(d.total)
}

func (d *Disk) kick() {
	if d.busy || d.completed || d.queue.Len() == 0 {
		return
	}
	d.cur = d.queue.PopFront()
	d.busy = true
	d.cur.started = d.eng.Now()
	d.totalWait += d.cur.started.Sub(d.cur.submitted)
	d.eng.After(d.serviceTime(d.cur), d.xferDone)
}

func (d *Disk) serviceTime(req DiskRequest) sim.Cycles {
	seek := sim.Cycles(0)
	if d.SeekTime != nil {
		seek = d.SeekTime.Draw(d.rng)
	}
	if d.PIO {
		// Programmed I/O: the controller signals readiness after the seek;
		// the data movement is the CPU's problem (see TransferCycles).
		return seek
	}
	xfer := sim.Cycles(float64(req.Bytes) / d.BytesPerCycle)
	return seek + xfer
}

// TransferCycles returns the CPU cost of moving a request's data under
// programmed I/O — the cycles the driver must burn at raised IRQL instead
// of letting the bus master overlap the transfer. Table 2 flags the DMA
// configuration as "a key point, easily overlooked"; this is what being
// overlooked costs.
func (d *Disk) TransferCycles(req DiskRequest) sim.Cycles {
	return sim.Cycles(float64(req.Bytes) / d.BytesPerCycle)
}

// CompleteTransfer acknowledges the completion interrupt: the driver ISR
// calls it to fetch the finished request. It reports false if no
// completion is pending (a spurious or shared interrupt). The next queued
// request then starts.
func (d *Disk) CompleteTransfer() (DiskRequest, bool) {
	if !d.completed {
		return DiskRequest{}, false
	}
	req := d.cur
	d.cur = DiskRequest{}
	d.completed = false
	d.total++
	d.kick()
	return req, true
}

// String describes the disk configuration.
func (d *Disk) String() string {
	mode := "DMA"
	if d.PIO {
		mode = "PIO"
	}
	return fmt.Sprintf("disk(%s, %.1f B/cycle)", mode, d.BytesPerCycle)
}
