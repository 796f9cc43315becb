package wdm_test

import (
	"errors"
	"testing"

	"wdmlat/internal/cpu"
	"wdmlat/internal/kernel"
	"wdmlat/internal/sim"
	"wdmlat/internal/wdm"
)

func newKernel(t *testing.T) (*sim.Engine, *kernel.Kernel) {
	t.Helper()
	eng := sim.NewEngine(1)
	c := cpu.New(eng, sim.DefaultFreq)
	k := kernel.New(eng, c, kernel.Config{Name: "test"})
	k.Boot(32, 300_000)
	t.Cleanup(k.Shutdown)
	return eng, k
}

func TestLoadRunsDriverEntry(t *testing.T) {
	_, k := newKernel(t)
	entered := false
	drv, err := wdm.Load(k, "TESTDRV", func(d *wdm.Driver) error {
		entered = true
		if d.Name() != "TESTDRV" {
			t.Errorf("name = %q", d.Name())
		}
		if d.Kernel() != k {
			t.Error("wrong kernel")
		}
		return nil
	})
	if err != nil || drv == nil {
		t.Fatalf("load: %v", err)
	}
	if !entered {
		t.Fatal("DriverEntry not called")
	}
}

func TestLoadPropagatesEntryFailure(t *testing.T) {
	_, k := newKernel(t)
	boom := errors.New("no resources")
	_, err := wdm.Load(k, "BAD", func(d *wdm.Driver) error { return boom })
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if _, err := wdm.Load(k, "NIL", nil); err == nil {
		t.Fatal("nil DriverEntry should fail")
	}
}

func TestReadFileExRoundTrip(t *testing.T) {
	eng, k := newKernel(t)
	drv, err := wdm.Load(k, "RT", func(d *wdm.Driver) error {
		d.MajorRead = func(irp *kernel.IRP) {
			irp.ASB[0] = d.GetCycleCount()
			// Complete asynchronously from harness context.
			eng.After(5000, func(sim.Time) {
				d.IoCompleteRequest(irp)
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var doneAt sim.Time
	irp, err := drv.ReadFileEx(func(i *kernel.IRP, at sim.Time) { doneAt = at })
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(100_000)
	if !irp.Completed() || doneAt != 5000 {
		t.Fatalf("completed=%v at %d", irp.Completed(), doneAt)
	}
	if irp.ASB[0] != 0 {
		t.Fatalf("read TSC = %d, want 0 at boot", irp.ASB[0])
	}
}

func TestReadWithoutDispatchFails(t *testing.T) {
	_, k := newKernel(t)
	drv, _ := wdm.Load(k, "EMPTY", func(d *wdm.Driver) error { return nil })
	if _, err := drv.ReadFileEx(nil); err == nil {
		t.Fatal("read without MajorRead should fail")
	}
}

func TestUnloadBlocksReads(t *testing.T) {
	_, k := newKernel(t)
	drv, _ := wdm.Load(k, "U", func(d *wdm.Driver) error {
		d.MajorRead = func(irp *kernel.IRP) {}
		return nil
	})
	drv.Unload()
	if _, err := drv.ReadFileEx(nil); err == nil {
		t.Fatal("read on unloaded driver should fail")
	}
}

func TestKeSetTimerUsesTickUnits(t *testing.T) {
	eng, k := newKernel(t)
	var firedAt sim.Time
	dpc := kernel.NewDPC("d", kernel.MediumImportance, func(c *kernel.DpcContext) {
		firedAt = c.Now()
	})
	drv, _ := wdm.Load(k, "TMR", func(d *wdm.Driver) error {
		tm := d.KeCreateTimer("t")
		d.KeSetTimer(tm, 3, dpc) // 3 ticks = 3 ms
		return nil
	})
	_ = drv
	// Drive the clock by hand.
	pitIntr := k.InterruptForVector(32)
	var tick func(sim.Time)
	tick = func(sim.Time) {
		pitIntr.Assert()
		eng.After(300_000, tick)
	}
	eng.After(300_000, tick)
	eng.RunUntil(3_000_000)
	if firedAt == 0 {
		t.Fatal("timer DPC never fired")
	}
	// Due at 3 ticks; the 3rd tick (t=900000) processes it.
	if firedAt < 900_000 || firedAt > 1_210_000 {
		t.Fatalf("fired at %d, want shortly after the 3rd tick", firedAt)
	}
}

func TestKeSetTimerValidation(t *testing.T) {
	_, k := newKernel(t)
	drv, _ := wdm.Load(k, "V", func(d *wdm.Driver) error { return nil })
	tm := drv.KeCreateTimer("t")
	defer func() {
		if recover() == nil {
			t.Fatal("zero-tick KeSetTimer should panic")
		}
	}()
	drv.KeSetTimer(tm, 0, nil)
}

func TestPsCreateSystemThreadStartsAtNormalPriority(t *testing.T) {
	eng, k := newKernel(t)
	var prio int
	raised := false
	drv, _ := wdm.Load(k, "THR", func(d *wdm.Driver) error {
		d.PsCreateSystemThread("worker", func(tc *kernel.ThreadContext) {
			if raised {
				return // second call: end the thread
			}
			raised = true
			prio = tc.Thread().Priority()
			tc.SetPriority(24)
		})
		return nil
	})
	_ = drv
	eng.RunUntil(1_000_000)
	if prio != kernel.NormalPriority {
		t.Fatalf("initial priority = %d, want %d (drivers raise it themselves, §2.2.4)",
			prio, kernel.NormalPriority)
	}
}

func TestKeCreateEventKinds(t *testing.T) {
	_, k := newKernel(t)
	drv, _ := wdm.Load(k, "EV", func(d *wdm.Driver) error { return nil })
	sync := drv.KeCreateEvent("s", kernel.SynchronizationEvent)
	notif := drv.KeCreateEvent("n", kernel.NotificationEvent)
	if sync.Kind != kernel.SynchronizationEvent || notif.Kind != kernel.NotificationEvent {
		t.Fatal("event kinds not honored")
	}
	if sync.Name != "EV.s" {
		t.Fatalf("event name = %q, want driver-prefixed", sync.Name)
	}
}
