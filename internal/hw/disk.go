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
// interrupt line. Both OSes in the paper were explicitly configured for DMA
// rather than PIO (§3.2) — with PIO the transfer would burn CPU in the
// driver instead, which the PIO knob reproduces for ablation.
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

	queue     []*DiskRequest
	busy      bool
	inflight  *DiskRequest // the transfer the controller is executing
	completed *DiskRequest // awaiting driver acknowledgment
	onDone    func(req *DiskRequest)
	xferDone  func(sim.Time) // hoisted completion event (one transfer at a time)
	reqFree   []*DiskRequest // recycled request records (FreeRequest)
	total     uint64
	totalWait sim.Cycles
}

// NewDisk creates a disk with the given service parameters asserting line
// on completion. onDone runs when the driver acknowledges the completion
// interrupt (CompleteTransfer), i.e. in ISR context.
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
		d.completed = d.inflight
		d.inflight = nil
		d.line.Assert()
	}
	return d
}

// AllocRequest returns a zeroed request, reusing pooled storage when
// available. Pairs with FreeRequest; plain &DiskRequest{} literals remain
// valid for callers that do not recycle.
func (d *Disk) AllocRequest() *DiskRequest {
	if n := len(d.reqFree); n > 0 {
		req := d.reqFree[n-1]
		d.reqFree[n-1] = nil
		d.reqFree = d.reqFree[:n-1]
		*req = DiskRequest{}
		return req
	}
	return &DiskRequest{}
}

// FreeRequest returns a request to the pool. The caller relinquishes the
// handle: call it only after CompleteTransfer has returned the request and
// its Tag has been fully processed — a freed request may be handed out
// again by the next AllocRequest.
func (d *Disk) FreeRequest(req *DiskRequest) {
	req.Tag = nil
	d.reqFree = append(d.reqFree, req)
}

// SetCompletionHandler registers the driver callback invoked from
// CompleteTransfer.
func (d *Disk) SetCompletionHandler(fn func(req *DiskRequest)) { d.onDone = fn }

// Submit queues a transfer. The controller starts it immediately if idle.
func (d *Disk) Submit(req *DiskRequest) {
	if req == nil || req.Bytes <= 0 {
		panic("hw: invalid disk request")
	}
	req.submitted = d.eng.Now()
	d.queue = append(d.queue, req)
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
	if d.busy || d.completed != nil || len(d.queue) == 0 {
		return
	}
	// Shift in place rather than advancing the slice base, which would
	// discard capacity and reallocate the queue every steady-state cycle.
	req := d.queue[0]
	copy(d.queue, d.queue[1:])
	d.queue[len(d.queue)-1] = nil
	d.queue = d.queue[:len(d.queue)-1]
	d.busy = true
	req.started = d.eng.Now()
	d.totalWait += req.started.Sub(req.submitted)
	service := d.serviceTime(req)
	d.inflight = req
	d.eng.After(service, d.xferDone)
}

func (d *Disk) serviceTime(req *DiskRequest) sim.Cycles {
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
func (d *Disk) TransferCycles(req *DiskRequest) sim.Cycles {
	return sim.Cycles(float64(req.Bytes) / d.BytesPerCycle)
}

// CompleteTransfer acknowledges the completion interrupt: the driver ISR
// calls it to fetch the finished request. It returns nil if no completion
// is pending (a spurious or shared interrupt). The next queued request then
// starts.
func (d *Disk) CompleteTransfer() *DiskRequest {
	req := d.completed
	if req == nil {
		return nil
	}
	d.completed = nil
	d.total++
	if d.onDone != nil {
		d.onDone(req)
	}
	d.kick()
	return req
}

// String describes the disk configuration.
func (d *Disk) String() string {
	mode := "DMA"
	if d.PIO {
		mode = "PIO"
	}
	return fmt.Sprintf("disk(%s, %.1f B/cycle)", mode, d.BytesPerCycle)
}
