package hw

import "wdmlat/internal/sim"

// Sound models the audio device (Ensoniq PCI card on NT, Philips USB
// speakers on 98 — Table 2): while playing, it consumes one buffer per
// period and asserts its interrupt line so the driver can refill. A buffer
// that is not refilled in time is an underrun — the audible "breakup" the
// paper traces to the virus scanner (§4.4).
type Sound struct {
	eng  *sim.Engine
	line IRQLine

	period    sim.Cycles
	playing   bool
	queued    int // refilled buffers ready to play
	depth     int // hardware queue depth
	underruns uint64
	periods   uint64
	tick      *sim.Event
	tickFn    func(sim.Time) // period callback, allocated once
}

// NewSound creates a device with the given hardware buffer queue depth.
func NewSound(eng *sim.Engine, line IRQLine, depth int) *Sound {
	if depth <= 0 {
		panic("hw: non-positive sound queue depth")
	}
	s := &Sound{eng: eng, line: line, depth: depth}
	s.tickFn = func(sim.Time) {
		// Event records are pooled: drop the handle before re-arming so a
		// later Stop cannot cancel a recycled record.
		s.tick = nil
		s.periods++
		if s.queued > 0 {
			s.queued--
		} else {
			s.underruns++
		}
		s.arm()
		s.line.Assert() // buffer-complete interrupt: driver should refill
	}
	return s
}

// SetDepth changes the hardware buffer queue depth. Playback must be
// stopped; the latency tolerance of the pipeline is (depth-1) periods plus
// the in-flight buffer.
func (s *Sound) SetDepth(depth int) {
	if s.playing {
		panic("hw: SetDepth while playing")
	}
	if depth <= 0 {
		panic("hw: non-positive sound queue depth")
	}
	s.depth = depth
}

// Depth returns the hardware buffer queue depth.
func (s *Sound) Depth() int { return s.depth }

// Start begins playback with the given buffer period and an initially full
// hardware queue.
func (s *Sound) Start(period sim.Cycles) {
	if period <= 0 {
		panic("hw: non-positive sound period")
	}
	s.Stop()
	s.playing = true
	s.period = period
	s.queued = s.depth
	s.arm()
}

// Stop halts playback.
func (s *Sound) Stop() {
	s.playing = false
	if s.tick != nil {
		s.eng.Cancel(s.tick)
		s.tick = nil
	}
}

func (s *Sound) arm() {
	s.tick = s.eng.After(s.period, s.tickFn)
}

// Refill adds one refilled buffer (the driver DPC calls this). Refilling a
// full queue is a no-op.
func (s *Sound) Refill() {
	if s.queued < s.depth {
		s.queued++
	}
}

// Playing reports whether playback is active.
func (s *Sound) Playing() bool { return s.playing }

// Queued returns the number of ready buffers.
func (s *Sound) Queued() int { return s.queued }

// Underruns returns the number of periods with no buffer ready.
func (s *Sound) Underruns() uint64 { return s.underruns }

// Periods returns the number of elapsed playback periods.
func (s *Sound) Periods() uint64 { return s.periods }
