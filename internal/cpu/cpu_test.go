package cpu

import (
	"testing"

	"wdmlat/internal/sim"
)

func newCPU() (*sim.Engine, *CPU) {
	eng := sim.NewEngine(1)
	return eng, New(eng, sim.DefaultFreq)
}

func TestTSCTracksEngineClock(t *testing.T) {
	eng, c := newCPU()
	if c.TSC() != 0 {
		t.Fatalf("TSC at boot = %d", c.TSC())
	}
	eng.At(500, func(sim.Time) {})
	eng.RunUntil(1000)
	if c.TSC() != 1000 {
		t.Fatalf("TSC = %d, want 1000", c.TSC())
	}
}

func TestTSCIncludesCharge(t *testing.T) {
	_, c := newCPU()
	c.AddCharge(300)
	if c.TSC() != 300 {
		t.Fatalf("TSC with charge = %d, want 300", c.TSC())
	}
	c.AddCharge(200)
	if c.TSC() != 500 {
		t.Fatalf("TSC with charge = %d, want 500", c.TSC())
	}
	if got := c.ResetCharge(); got != 500 {
		t.Fatalf("ResetCharge = %d, want 500", got)
	}
	if c.TSC() != 0 {
		t.Fatalf("TSC after reset = %d, want 0", c.TSC())
	}
}

func TestNegativeChargePanics(t *testing.T) {
	_, c := newCPU()
	defer func() {
		if recover() == nil {
			t.Fatal("negative charge should panic")
		}
	}()
	c.AddCharge(-1)
}

func TestInstallAndDispatch(t *testing.T) {
	_, c := newCPU()
	var got sim.Time
	c.Install(32, func(now sim.Time) { got = now })
	c.Dispatch(32, 777)
	if got != 777 {
		t.Fatalf("handler saw %d, want 777", got)
	}
}

func TestDispatchEmptyVectorPanics(t *testing.T) {
	_, c := newCPU()
	defer func() {
		if recover() == nil {
			t.Fatal("dispatch through empty vector should panic")
		}
	}()
	c.Dispatch(33, 0)
}

func TestVectorRangeChecks(t *testing.T) {
	_, c := newCPU()
	for _, v := range []int{-1, NumVectors} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("vector %d should panic", v)
				}
			}()
			c.Install(v, func(sim.Time) {})
		}()
	}
}

func TestHookChainsAndUnhooks(t *testing.T) {
	_, c := newCPU()
	var order []string
	c.Install(40, func(sim.Time) { order = append(order, "os") })
	unhook := c.Hook(40, func(now sim.Time, chain Handler) {
		order = append(order, "hook")
		chain(now)
	})
	c.Dispatch(40, 1)
	if len(order) != 2 || order[0] != "hook" || order[1] != "os" {
		t.Fatalf("hook order = %v", order)
	}

	unhook()
	order = nil
	c.Dispatch(40, 2)
	if len(order) != 1 || order[0] != "os" {
		t.Fatalf("after unhook order = %v", order)
	}
}

func TestHookStacking(t *testing.T) {
	_, c := newCPU()
	var order []string
	c.Install(41, func(sim.Time) { order = append(order, "os") })
	c.Hook(41, func(now sim.Time, chain Handler) {
		order = append(order, "first")
		chain(now)
	})
	c.Hook(41, func(now sim.Time, chain Handler) {
		order = append(order, "second")
		chain(now)
	})
	c.Dispatch(41, 1)
	want := []string{"second", "first", "os"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("stacked hooks order = %v, want %v", order, want)
		}
	}
}

func TestFrameString(t *testing.T) {
	cases := []struct {
		f    Frame
		want string
	}{
		{Frame{}, "idle"},
		{Frame{Module: "KMIXER"}, "KMIXER function unknown"},
		{Frame{Module: "VMM", Function: "_mmFindContig"}, "VMM function _mmFindContig"},
	}
	for _, c := range cases {
		if got := c.f.String(); got != c.want {
			t.Errorf("%+v.String() = %q, want %q", c.f, got, c.want)
		}
	}
}
