package hw

import "wdmlat/internal/sim"

// NIC models the EtherExpress Pro 100 of the test system: received packets
// accumulate in a ring, a FIFO of their arrival instants that drops what
// arrives while it is full, and the card asserts its interrupt line under
// a configurable interrupt-moderation mode. The web-browsing workload
// delivers download bursts through it (§3.1.3); the interrupt-storm
// frontier drives it with a sustained packet stream and sweeps the
// moderation axis.
//
// Moderation modes:
//
//   - ModeratePerWindow (default): one assertion per pending window — the
//     line raises when the ring goes non-empty and stays logically raised
//     until the driver drains it, re-asserting after a partial drain. This
//     is the card behaviour every paper-era figure was produced under.
//   - ModerateITR: a fixed interrupt-throttle gap — assertions (including
//     partial-drain re-assertions) are spaced at least Gap apart, trading
//     packet-service latency for fewer interrupts per second.
//   - ModerateAdaptive: the ITR gap adapts to the observed arrival rate
//     between a min and max bound — multiplicatively widened when windows
//     arrive full (bursty), tightened when they arrive nearly empty.
type NIC struct {
	eng  *sim.Engine
	line IRQLine

	// InterPacketGap is the wire spacing between packets inside a burst
	// (10 Mbit LAN in the paper ≈ 1.2 ms for a 1500-byte frame; the test
	// LAN was 100 Mbit to over-stress the system).
	InterPacketGap sim.Cycles

	// ring holds the arrival instant of at most ringCap packets, so its
	// backing stays bounded however long a storm keeps it from emptying.
	// waits is the recycled storage DrainTimed returns.
	ring      sim.Queue[sim.Time]
	waits     []sim.Cycles
	delivered uint64
	dropped   uint64
	ringCap   int
	raised    bool

	// Interrupt moderation state.
	mode         Moderation
	gap          sim.Cycles // current inter-assert spacing (ITR/adaptive)
	gapMin       sim.Cycles // adaptive bounds
	gapMax       sim.Cycles
	lastAssert   sim.Time
	everAsserted bool
	sinceAssert  int // packets received since the last assertion
	asserts      uint64
	throttle     *sim.Event
	throttleFn   func(sim.Time)
}

// Moderation selects the card's interrupt-moderation strategy.
type Moderation int

// The three moderation modes of the frontier sweep.
const (
	ModeratePerWindow Moderation = iota
	ModerateITR
	ModerateAdaptive
)

// String returns the mode's slug, used in campaign cell keys and artifact
// labels — stable, lower-case, no spaces.
func (m Moderation) String() string {
	switch m {
	case ModeratePerWindow:
		return "per-assert"
	case ModerateITR:
		return "itr"
	case ModerateAdaptive:
		return "adaptive"
	default:
		return "moderation(?)"
	}
}

// Adaptive window classification: a full-ish window widens the gap, a
// nearly-empty one tightens it (the classic rate-adaptive ITR scheme).
const (
	adaptHighWater = 16
	adaptLowWater  = 2
)

// NewNIC creates a card with the given ring capacity, in per-window mode.
func NewNIC(eng *sim.Engine, line IRQLine, ringCap int, gap sim.Cycles) *NIC {
	if ringCap <= 0 {
		panic("hw: non-positive NIC ring capacity")
	}
	n := &NIC{eng: eng, line: line, ringCap: ringCap, InterPacketGap: gap}
	n.throttleFn = func(sim.Time) {
		n.throttle = nil
		if n.ring.Len() > 0 {
			n.doAssert()
		}
	}
	return n
}

// SetModeration configures the interrupt-moderation mode. For ModerateITR,
// gap is the fixed inter-assert spacing; for ModerateAdaptive, [gapMin,
// gapMax] bound the adaptive gap (which starts at gapMin). Configure before
// traffic flows — the mode is part of the card's identity, not a runtime
// control register.
func (n *NIC) SetModeration(mode Moderation, gap, gapMin, gapMax sim.Cycles) {
	if n.everAsserted || n.ring.Len() > 0 {
		panic("hw: NIC moderation changed after traffic")
	}
	switch mode {
	case ModeratePerWindow:
	case ModerateITR:
		if gap <= 0 {
			panic("hw: non-positive ITR gap")
		}
	case ModerateAdaptive:
		if gapMin <= 0 || gapMax < gapMin {
			panic("hw: invalid adaptive gap bounds")
		}
		gap = gapMin
	default:
		panic("hw: unknown NIC moderation mode")
	}
	n.mode, n.gap, n.gapMin, n.gapMax = mode, gap, gapMin, gapMax
}

// Moderation returns the configured mode.
func (n *NIC) Moderation() Moderation { return n.mode }

// Gap returns the current inter-assert spacing (0 in per-window mode).
func (n *NIC) Gap() sim.Cycles { return n.gap }

// DeliverBurst schedules n packets of the given size arriving back to back
// starting now. Each arrival raises the interrupt line if it is not already
// raised. The card keeps no packet's size: nothing the driver does depends
// on it, so it is only checked to be positive.
func (n *NIC) DeliverBurst(packets, bytes int) {
	if packets <= 0 || bytes <= 0 {
		panic("hw: invalid NIC burst")
	}
	// One arrival closure serves the whole burst: allocating per packet
	// dominated the machine's steady-state garbage.
	rx := func(sim.Time) { n.receive() }
	for i := 0; i < packets; i++ {
		delay := sim.Cycles(i) * n.InterPacketGap
		n.eng.After(delay, rx)
	}
}

// Deliver receives one packet of the given size now. The interrupt-storm
// workload schedules its own arrival process and feeds packets in one at a
// time.
func (n *NIC) Deliver(bytes int) {
	if bytes <= 0 {
		panic("hw: invalid NIC packet")
	}
	n.receive()
}

func (n *NIC) receive() {
	if n.ring.Len() >= n.ringCap {
		n.dropped++
		return
	}
	n.ring.PushBack(n.eng.Now())
	n.sinceAssert++
	if !n.raised {
		n.tryAssert()
	}
}

// tryAssert raises the line now or, in throttled modes, no earlier than one
// gap after the previous assertion.
func (n *NIC) tryAssert() {
	if n.mode == ModeratePerWindow {
		n.doAssert()
		return
	}
	now := n.eng.Now()
	next := n.lastAssert.Add(n.gap)
	if !n.everAsserted || !next.After(now) {
		n.doAssert()
		return
	}
	if n.throttle == nil {
		n.throttle = n.eng.After(next.Sub(now), n.throttleFn)
	}
}

func (n *NIC) doAssert() {
	if n.mode == ModerateAdaptive && n.everAsserted {
		n.adapt()
	}
	n.raised = true
	n.asserts++
	n.lastAssert = n.eng.Now()
	n.everAsserted = true
	n.sinceAssert = 0
	n.line.Assert()
}

// adapt widens the gap when assertion windows arrive full (bursty traffic —
// coalesce harder) and tightens it when they arrive nearly empty (sparse
// traffic — favour latency).
func (n *NIC) adapt() {
	switch {
	case n.sinceAssert >= adaptHighWater:
		n.gap *= 2
		if n.gap > n.gapMax {
			n.gap = n.gapMax
		}
	case n.sinceAssert <= adaptLowWater:
		n.gap /= 2
		if n.gap < n.gapMin {
			n.gap = n.gapMin
		}
	}
}

// Drain removes up to max packets from the ring (the driver ISR/DPC calls
// this) and returns how many it removed. When the ring empties the line
// deasserts; if packets remain the card re-asserts (subject to moderation)
// so the driver takes another pass.
func (n *NIC) Drain(max int) int {
	count, _ := n.drain(max, false)
	return count
}

// DrainTimed is Drain, returning each drained packet's queueing delay
// (arrival to drain — the latency cost of interrupt moderation); the count
// is the slice's length. The slice is recycled storage, valid only until
// the next drain.
func (n *NIC) DrainTimed(max int) []sim.Cycles {
	_, waits := n.drain(max, true)
	return waits
}

func (n *NIC) drain(max int, timed bool) (int, []sim.Cycles) {
	avail := n.ring.Len()
	if max <= 0 || avail == 0 {
		n.raised = avail > 0
		return 0, nil
	}
	if max > avail {
		max = avail
	}
	waits, now := n.waits[:0], n.eng.Now()
	for i := 0; i < max; i++ {
		at := n.ring.PopFront()
		if timed {
			waits = append(waits, now.Sub(at))
		}
	}
	n.waits = waits
	n.delivered += uint64(max)
	if n.ring.Len() > 0 {
		// More work: model a level-triggered line by re-asserting.
		n.tryAssert()
	} else {
		n.raised = false
	}
	return max, waits
}

// Pending returns the number of packets in the ring.
func (n *NIC) Pending() int { return n.ring.Len() }

// Delivered returns packets handed to the driver; Dropped counts ring
// overflows.
func (n *NIC) Delivered() uint64 { return n.delivered }

// Dropped returns the number of packets lost to ring overflow.
func (n *NIC) Dropped() uint64 { return n.dropped }

// Asserts returns the number of interrupt assertions — the coalescing
// ratio is Delivered/Asserts.
func (n *NIC) Asserts() uint64 { return n.asserts }
