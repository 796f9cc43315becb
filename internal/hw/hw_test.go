package hw

import (
	"testing"

	"wdmlat/internal/sim"
)

func TestPITAssertsAtExactPeriods(t *testing.T) {
	eng := sim.NewEngine(1)
	var at []sim.Time
	p := NewPIT(eng, LineFunc(func() { at = append(at, eng.Now()) }))
	p.Program(1000)
	eng.RunUntil(5500)
	if len(at) != 5 {
		t.Fatalf("got %d ticks, want 5", len(at))
	}
	for i, tm := range at {
		if want := sim.Time(1000 * (i + 1)); tm != want {
			t.Fatalf("tick %d at %d, want %d", i, tm, want)
		}
	}
	if p.Ticks() != 5 {
		t.Fatalf("Ticks = %d", p.Ticks())
	}
	if p.NominalTickTime(3) != 3000 {
		t.Fatalf("NominalTickTime(3) = %d", p.NominalTickTime(3))
	}
}

func TestPITReprogram(t *testing.T) {
	eng := sim.NewEngine(1)
	var at []sim.Time
	p := NewPIT(eng, LineFunc(func() { at = append(at, eng.Now()) }))
	p.Program(10_000) // 30 Hz-ish default
	eng.RunUntil(25_000)
	p.Program(1000) // the tool reprograms to 1 kHz
	eng.RunUntil(30_000)
	// 2 slow ticks (10k, 20k) then fast ticks from 26k on.
	if len(at) < 6 {
		t.Fatalf("ticks: %v", at)
	}
	if at[0] != 10_000 || at[1] != 20_000 {
		t.Fatalf("slow ticks: %v", at[:2])
	}
	if at[2] != 26_000 {
		t.Fatalf("first fast tick at %d, want 26000", at[2])
	}
	if p.Period() != 1000 {
		t.Fatalf("period = %d", p.Period())
	}
}

func TestPITStop(t *testing.T) {
	eng := sim.NewEngine(1)
	n := 0
	p := NewPIT(eng, LineFunc(func() { n++ }))
	p.Program(1000)
	eng.RunUntil(3500)
	p.Stop()
	eng.RunUntil(10_000)
	if n != 3 {
		t.Fatalf("ticks after stop = %d, want 3", n)
	}
}

func TestPITValidation(t *testing.T) {
	eng := sim.NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Fatal("Program(0) should panic")
		}
	}()
	NewPIT(eng, LineFunc(func() {})).Program(0)
}

func TestDiskServiceAndCompletion(t *testing.T) {
	eng := sim.NewEngine(1)
	interrupts := 0
	d := NewDisk(eng, LineFunc(func() { interrupts++ }), sim.Constant(1000), 10) // 10 B/cycle

	d.Submit(DiskRequest{Bytes: 50_000, Tag: "a"})
	// Service = 1000 seek + 5000 transfer = 6000.
	eng.RunUntil(6000)
	if interrupts != 1 {
		t.Fatalf("interrupts = %d, want 1", interrupts)
	}
	req, ok := d.CompleteTransfer()
	if !ok || req.Tag != "a" {
		t.Fatalf("completion = %+v, %v", req, ok)
	}
	if _, ok := d.CompleteTransfer(); ok {
		t.Fatal("second completion should report none pending")
	}
	if d.Transfers() != 1 {
		t.Fatalf("transfers = %d", d.Transfers())
	}
}

func TestDiskQueuesFIFO(t *testing.T) {
	eng := sim.NewEngine(1)
	var asserts int
	d := NewDisk(eng, LineFunc(func() { asserts++ }), sim.Constant(100), 100)
	var order []any
	// Acknowledge each completion from the "ISR" as it happens.
	prev := 0
	for _, tag := range []string{"a", "b", "c"} {
		d.Submit(DiskRequest{Bytes: 10_000, Tag: tag})
	}
	// Poll for completions the way a driver ISR would.
	var poll func(sim.Time)
	poll = func(sim.Time) {
		if asserts > prev {
			prev = asserts
			if req, ok := d.CompleteTransfer(); ok {
				order = append(order, req.Tag)
			}
		}
		if len(order) < 3 {
			eng.After(10, poll)
		}
	}
	eng.After(10, poll)
	eng.RunUntil(100_000)
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("order = %v", order)
	}
	if d.MeanQueueWait() <= 0 {
		t.Fatal("queued requests should have waited")
	}
}

func TestDiskHoldsUntilAcknowledged(t *testing.T) {
	eng := sim.NewEngine(1)
	asserts := 0
	d := NewDisk(eng, LineFunc(func() { asserts++ }), sim.Constant(100), 100)
	d.Submit(DiskRequest{Bytes: 1000, Tag: 1})
	d.Submit(DiskRequest{Bytes: 1000, Tag: 2})
	eng.RunUntil(50_000)
	// Without acknowledgment, only the first transfer completes.
	if asserts != 1 {
		t.Fatalf("asserts = %d, want 1 (no ack yet)", asserts)
	}
	d.CompleteTransfer()
	eng.RunUntil(100_000)
	if asserts != 2 {
		t.Fatalf("asserts = %d, want 2 after ack", asserts)
	}
}

func TestNICBurstAndDrain(t *testing.T) {
	eng := sim.NewEngine(1)
	asserts := 0
	n := NewNIC(eng, LineFunc(func() { asserts++ }), 64, 100)
	n.DeliverBurst(10, 1500)
	eng.RunUntil(2000)
	if n.Pending() != 10 {
		t.Fatalf("pending = %d, want 10", n.Pending())
	}
	if asserts != 1 {
		t.Fatalf("asserts = %d, want 1 (moderated)", asserts)
	}
	if got := n.Drain(4); got != 4 {
		t.Fatalf("drain = %d packets, want 4", got)
	}
	// Partial drain re-asserts.
	if asserts != 2 {
		t.Fatalf("asserts after partial drain = %d, want 2", asserts)
	}
	if rest := n.Drain(100); rest != 6 {
		t.Fatalf("second drain = %d packets, want 6", rest)
	}
	if n.Delivered() != 10 {
		t.Fatalf("delivered = %d", n.Delivered())
	}
}

func TestNICRingOverflowDrops(t *testing.T) {
	eng := sim.NewEngine(1)
	n := NewNIC(eng, LineFunc(func() {}), 4, 10)
	n.DeliverBurst(10, 1500)
	eng.RunUntil(1000)
	if n.Pending() != 4 {
		t.Fatalf("pending = %d, want ring cap 4", n.Pending())
	}
	if n.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", n.Dropped())
	}
}

func TestSoundPlaybackAndUnderruns(t *testing.T) {
	eng := sim.NewEngine(1)
	asserts := 0
	s := NewSound(eng, LineFunc(func() { asserts++ }), 2)
	s.Start(1000)
	// Never refill: first 2 periods consume the queue, then underruns.
	eng.RunUntil(5500)
	if s.Periods() != 5 {
		t.Fatalf("periods = %d", s.Periods())
	}
	if s.Underruns() != 3 {
		t.Fatalf("underruns = %d, want 3", s.Underruns())
	}
	if asserts != 5 {
		t.Fatalf("asserts = %d", asserts)
	}
	s.Stop()
	eng.RunUntil(10_000)
	if s.Periods() != 5 {
		t.Fatal("device ran after Stop")
	}
}

func TestSoundRefillPreventsUnderruns(t *testing.T) {
	eng := sim.NewEngine(1)
	var s *Sound
	s = NewSound(eng, LineFunc(func() {
		s.Refill() // perfect zero-latency driver
	}), 2)
	s.Start(1000)
	eng.RunUntil(100_000)
	if s.Underruns() != 0 {
		t.Fatalf("underruns = %d with perfect refill", s.Underruns())
	}
	if s.Queued() != 2 {
		t.Fatalf("queued = %d, want full", s.Queued())
	}
}

func TestSoundSetDepth(t *testing.T) {
	eng := sim.NewEngine(1)
	s := NewSound(eng, LineFunc(func() {}), 4)
	s.SetDepth(2)
	if s.Depth() != 2 {
		t.Fatalf("depth = %d", s.Depth())
	}
	s.Start(1000)
	// Two periods consume the queue; the third underruns.
	eng.RunUntil(3500)
	if s.Underruns() != 1 {
		t.Fatalf("underruns = %d, want 1", s.Underruns())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("SetDepth while playing should panic")
			}
		}()
		s.SetDepth(8)
	}()
}

func TestDiskPIOShiftsTransferToCPU(t *testing.T) {
	eng := sim.NewEngine(1)
	fired := 0
	d := NewDisk(eng, LineFunc(func() { fired++ }), sim.Constant(1000), 10)
	d.PIO = true
	req := DiskRequest{Bytes: 50_000}
	d.Submit(req)
	// PIO: device signals after the seek only (1000 cycles), leaving the
	// 5000-cycle transfer to the CPU.
	eng.RunUntil(1000)
	if fired != 1 {
		t.Fatalf("PIO completion not signaled after seek (fired=%d)", fired)
	}
	if got := d.TransferCycles(req); got != 5000 {
		t.Fatalf("TransferCycles = %d, want 5000", got)
	}
}
