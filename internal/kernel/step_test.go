package kernel

// Differential test of the step path: random thread programs run once as
// blocking bodies (CreateThread, the goroutine adapter) and once as step
// bodies (CreateStepThread) on identically seeded machines, and everything
// observable must agree.

import (
	"fmt"
	"strings"
	"testing"

	"wdmlat/internal/cpu"
	"wdmlat/internal/sim"
)

// progOp is one instruction of a generated thread program. Every
// instruction but progExit is exactly one ThreadContext operation.
type progOp int

const (
	progExec progOp = iota
	progExecDist
	progExecRaised
	progWait
	progWaitTimeout
	progWaitAny
	progWaitAnyTimeout
	progSleep
	progSetEvent
	progReleaseSem
	progQueueDpc
	progSetPriority
	progDo
	progExit
)

type progInstr struct {
	op     progOp
	cycles sim.Cycles // Exec/ExecRaised length, wait timeout, sleep
	irql   IRQL
	obj    int   // index into diffMachine.objs (events, semaphores) or .events
	objs   []int // WaitAny sets
	n      int   // semaphore release count, new priority, Do action
}

func (in progInstr) isWait() bool {
	return in.op >= progWait && in.op <= progWaitAnyTimeout
}

type threadProg struct {
	name string
	prio int
	code []progInstr // run in a loop until a progExit
}

// diffMachine is one machine of the differential test: a kernel, the
// dispatcher objects the programs use, and the engine traffic (clock,
// interrupts, DPCs, timers, work items, episodes) a seeded harness drives.
type diffMachine struct {
	eng    *sim.Engine
	k      *Kernel
	events []*Event     // 0-2 synchronization, 3 notification
	sems   []*Semaphore // 0-1
	objs   []Waitable   // events then semaphores
	intr   *Interrupt
	dpc    *DPC
	timer  *Timer
	do     []func() // Do actions
	trace  []string
}

const diffEvents, diffSems = 4, 2

func newDiffMachine(seed uint64, boost bool) *diffMachine {
	m := &diffMachine{eng: sim.NewEngine(seed)}
	m.k = New(m.eng, cpu.New(m.eng, sim.DefaultFreq), Config{Name: "diff", PriorityBoost: boost})
	k := m.k
	k.Boot(32, 300_000)
	for i := 0; i < diffEvents; i++ {
		kind := SynchronizationEvent
		if i == diffEvents-1 {
			kind = NotificationEvent
		}
		m.events = append(m.events, k.NewEvent(fmt.Sprintf("ev%d", i), kind))
		m.objs = append(m.objs, m.events[i])
	}
	for i := 0; i < diffSems; i++ {
		m.sems = append(m.sems, k.NewSemaphore(0, 3))
		m.objs = append(m.objs, m.sems[i])
	}
	hrng := sim.NewRNG(seed ^ 0x5eed)
	m.dpc = NewDPC("diff.dpc", MediumImportance, func(c *DpcContext) {
		c.Charge(sim.Cycles(hrng.Intn(20_000)))
		if hrng.Bool(0.5) {
			c.SetEvent(m.events[hrng.Intn(diffEvents)])
		} else {
			c.ReleaseSemaphore(m.sems[hrng.Intn(diffSems)], 1)
		}
	})
	m.intr = k.Connect(40, 12, "DRV", "_ISR", func(c *IsrContext) {
		c.Charge(sim.Cycles(500 + hrng.Intn(3000)))
		c.QueueDpc(m.dpc)
	})
	m.timer = k.NewTimer("diff.timer")
	clock := k.InterruptForVector(32)
	m.do = []func(){
		m.intr.Assert,
		func() { k.InjectEpisode(LockScheduler, 30_000, "VMM", "_Lock") },
		func() { k.InjectEpisode(MaskInterrupts, 10_000, "VXD", "_Cli") },
		func() { k.QueueWorkItem(&WorkItem{Name: "do.wi", Cycles: 40_000}) },
		func() { k.SetTimer(m.timer, 200_000, m.dpc) },
		func() { k.ResetEvent(m.events[diffEvents-1]) },
		func() {}, // readies nothing
	}
	m.k.SetHooks(Hooks{
		InterruptAsserted: func(v int, at sim.Time) { m.rec("assert %d @%d", v, at) },
		IsrEntered:        func(v int, a, e sim.Time) { m.rec("isr %d %d @%d", v, a, e) },
		DpcQueued:         func(d *DPC, at sim.Time) { m.rec("dpcq %s @%d", d.Name, at) },
		DpcStarted:        func(d *DPC, q, s sim.Time) { m.rec("dpc %s %d @%d", d.Name, q, s) },
		ThreadReadied:     func(t *Thread, at sim.Time) { m.rec("ready %s @%d", t.Name, at) },
		ThreadDispatched:  func(t *Thread, r, at sim.Time) { m.rec("run %s %d @%d", t.Name, r, at) },
	})
	var tick func(sim.Time)
	tick = func(sim.Time) {
		clock.Assert()
		m.eng.After(300_000, "pit", tick)
	}
	m.eng.After(300_000, "pit", tick)
	var kick func(sim.Time)
	kick = func(sim.Time) {
		switch hrng.Intn(7) {
		case 0:
			m.intr.Assert()
		case 1:
			k.QueueDpc(m.dpc)
		case 2:
			k.SetTimer(m.timer, sim.Cycles(1+hrng.Intn(900_000)), m.dpc)
		case 3:
			k.QueueWorkItem(&WorkItem{Name: "wi", Cycles: sim.Cycles(hrng.Intn(80_000))})
		case 4:
			k.SetEvent(m.events[hrng.Intn(diffEvents)])
		case 5:
			k.ReleaseSemaphore(m.sems[hrng.Intn(diffSems)], 1+hrng.Intn(2))
		case 6:
			kind := LockScheduler
			if hrng.Bool(0.3) {
				kind = MaskInterrupts
			}
			k.InjectEpisode(kind, sim.Cycles(1+hrng.Intn(100_000)), "VMM", "_X")
		}
		m.eng.After(sim.Cycles(1000+hrng.Intn(60_000)), "kick", kick)
	}
	m.eng.After(700, "kick", kick)
	return m
}

func (m *diffMachine) rec(format string, args ...any) {
	m.trace = append(m.trace, fmt.Sprintf(format, args...))
}

// perform makes instruction in's one operation and returns the wait outcome
// as the blocking API reports it (zero from a step body).
func (m *diffMachine) perform(tc *ThreadContext, in progInstr) (WaitStatus, int) {
	switch in.op {
	case progExec:
		tc.Exec(in.cycles)
	case progExecDist:
		tc.ExecDist(sim.Uniform{Lo: 1, Hi: in.cycles})
	case progExecRaised:
		tc.ExecRaised(in.irql, in.cycles)
	case progWait:
		return tc.Wait(m.objs[in.obj]), 0
	case progWaitTimeout:
		return tc.WaitTimeout(m.objs[in.obj], in.cycles), 0
	case progWaitAny:
		return WaitSuccess, tc.WaitAny(m.waitables(in.objs)...)
	case progWaitAnyTimeout:
		idx, st := tc.WaitAnyTimeout(in.cycles, m.waitables(in.objs)...)
		return st, idx
	case progSleep:
		tc.Sleep(in.cycles)
	case progSetEvent:
		tc.SetEvent(m.events[in.obj])
	case progReleaseSem:
		tc.ReleaseSemaphore(m.sems[in.obj], in.n)
	case progQueueDpc:
		tc.QueueDpc(m.dpc)
	case progSetPriority:
		tc.SetPriority(in.n)
	case progDo:
		tc.Do(m.do[in.n])
	default:
		panic("perform: no operation for " + fmt.Sprint(in.op))
	}
	return 0, 0
}

func (m *diffMachine) waitables(idx []int) []Waitable {
	ws := make([]Waitable, len(idx))
	for i, j := range idx {
		ws[i] = m.objs[j]
	}
	return ws
}

// recWait records a completed wait's outcome in the blocking API's terms.
func (m *diffMachine) recWait(name string, in progInstr, st WaitStatus, idx int) {
	switch in.op {
	case progWait, progWaitTimeout:
		m.rec("%s wait %v", name, st)
	case progWaitAny:
		m.rec("%s waitany %d", name, idx)
	case progWaitAnyTimeout:
		m.rec("%s waitany %d %v", name, idx, st)
	}
}

// blockingBody runs p as a CreateThread body.
func (m *diffMachine) blockingBody(p threadProg) func(*ThreadContext) {
	return func(tc *ThreadContext) {
		for {
			for _, in := range p.code {
				if in.op == progExit {
					return
				}
				st, idx := m.perform(tc, in)
				if in.isWait() {
					m.recWait(p.name, in, st, idx)
				}
			}
		}
	}
}

// stepBody runs p as a step body: pc is its program counter, and the
// outcome of a wait is read at the next call, the first moment the body
// runs after it, where a blocking body records the value the wait returned.
func (m *diffMachine) stepBody(p threadProg) func(*ThreadContext) {
	pc, waited := 0, -1
	return func(tc *ThreadContext) {
		if waited >= 0 {
			in, r := p.code[waited], tc.t.result
			idx := r.index
			if in.op == progWaitAnyTimeout && r.status == WaitTimedOut {
				idx = -1
			}
			m.recWait(p.name, in, r.status, idx)
			waited = -1
		}
		in := p.code[pc]
		if in.op == progExit {
			return
		}
		if in.isWait() {
			waited = pc
		}
		pc = (pc + 1) % len(p.code)
		m.perform(tc, in)
	}
}

func genProgram(rng *sim.RNG, name string) threadProg {
	p := threadProg{name: name, prio: 1 + rng.Intn(MaxPriority)}
	n := 2 + rng.Intn(8)
	advances := false
	for i := 0; i < n; i++ {
		in := progInstr{op: progOp(rng.Intn(int(progExit)))}
		switch in.op {
		case progExec:
			if !rng.Bool(0.2) {
				in.cycles = sim.Cycles(1 + rng.Intn(200_000))
				advances = true
			}
		case progExecDist:
			in.cycles = sim.Cycles(2 + rng.Intn(100_000))
			advances = true
		case progExecRaised:
			in.irql = []IRQL{DispatchLevel, 8, 20, HighLevel}[rng.Intn(4)]
			in.cycles = sim.Cycles(rng.Intn(30_000))
			advances = in.cycles > 0
		case progWait:
			in.obj = rng.Intn(diffEvents + diffSems)
		case progWaitTimeout:
			in.obj = rng.Intn(diffEvents + diffSems)
			in.cycles = sim.Cycles(rng.Intn(400_000))
		case progWaitAny, progWaitAnyTimeout:
			// Drawn independently, so a set may name one object more
			// than once and register the thread on it repeatedly.
			for j := 1 + rng.Intn(3); j > 0; j-- {
				in.objs = append(in.objs, rng.Intn(diffEvents+diffSems))
			}
			in.cycles = sim.Cycles(rng.Intn(400_000))
		case progSleep:
			if !rng.Bool(0.3) {
				in.cycles = sim.Cycles(1 + rng.Intn(300_000))
				advances = true
			}
		case progSetEvent:
			in.obj = rng.Intn(diffEvents)
		case progReleaseSem:
			in.obj = rng.Intn(diffSems)
			in.n = 1 + rng.Intn(2)
		case progSetPriority:
			in.n = 1 + rng.Intn(MaxPriority)
		case progDo:
			in.n = rng.Intn(7)
		}
		p.code = append(p.code, in)
	}
	if !advances {
		// Every pass of a looping program must let virtual time pass, or
		// it would spin at one instant forever.
		p.code = append(p.code, progInstr{op: progExec, cycles: sim.Cycles(1 + rng.Intn(50_000))})
	}
	if rng.Bool(0.2) {
		p.code = append(p.code, progInstr{op: progExit})
	}
	return p
}

// diffOutcome is everything the differential test compares.
type diffOutcome struct {
	trace    []string // Hooks records and wait outcomes, in order
	counters Counters
	threads  []string // per thread: CPU time, switches, state, priority
	fired    uint64
}

// runDiff builds the machine for seed, runs its generated programs as step
// or blocking bodies for 60 virtual milliseconds, and reports the outcome.
func runDiff(seed uint64, step bool) diffOutcome {
	rng := sim.NewRNG(seed)
	progs := make([]threadProg, 2+rng.Intn(4))
	for i := range progs {
		progs[i] = genProgram(rng, fmt.Sprintf("t%d", i))
	}
	m := newDiffMachine(seed, seed%2 == 0)
	defer m.k.Shutdown()
	for _, p := range progs {
		if step {
			m.k.CreateStepThread(p.name, p.prio, m.stepBody(p))
		} else {
			m.k.CreateThread(p.name, p.prio, m.blockingBody(p))
		}
	}
	m.eng.RunUntil(18_000_000)
	out := diffOutcome{trace: m.trace, counters: m.k.Counters(), fired: m.eng.Fired()}
	for _, t := range m.k.threads {
		out.threads = append(out.threads, fmt.Sprintf("%s cpu=%d switches=%d %s prio=%d",
			t.Name, t.CPUTime(), t.Switches(), t.State(), t.Priority()))
	}
	return out
}

// TestStepBodiesMatchBlockingReference runs random thread programs — every
// ThreadContext operation, inline and blocking, under ISR, DPC, timer,
// work-item and episode traffic — as blocking bodies and as step bodies.
// The Hooks trace, the wait outcomes, the counters, each thread's CPU time
// and switches, and the engine's fired-event count must all be equal.
func TestStepBodiesMatchBlockingReference(t *testing.T) {
	seeds := uint64(60)
	if testing.Short() {
		seeds = 15
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		ref, got := runDiff(seed, false), runDiff(seed, true)
		for i := 0; i < len(ref.trace) && i < len(got.trace); i++ {
			if ref.trace[i] != got.trace[i] {
				t.Fatalf("seed %d: trace diverges at record %d of %d:\nblocking: %s\nstep:     %s",
					seed, i, len(ref.trace), ref.trace[i], got.trace[i])
			}
		}
		if len(ref.trace) != len(got.trace) {
			t.Fatalf("seed %d: trace has %d records blocking, %d step", seed, len(ref.trace), len(got.trace))
		}
		if len(ref.trace) < 100 {
			t.Fatalf("seed %d: only %d trace records; the machine is not exercised", seed, len(ref.trace))
		}
		if ref.counters != got.counters {
			t.Fatalf("seed %d: counters differ:\nblocking %+v\nstep     %+v", seed, ref.counters, got.counters)
		}
		if fmt.Sprint(ref.threads) != fmt.Sprint(got.threads) {
			t.Fatalf("seed %d: threads differ:\nblocking %v\nstep     %v", seed, ref.threads, got.threads)
		}
		if ref.fired != got.fired {
			t.Fatalf("seed %d: engine fired %d events blocking, %d step", seed, ref.fired, got.fired)
		}
	}
}

// stepUntilPanic steps eng until it runs dry, returning the value of any
// panic that unwound through eng.Step.
func stepUntilPanic(eng *sim.Engine) (pv any) {
	defer func() { pv = recover() }()
	for i := 0; i < 10_000 && eng.Step(); i++ {
	}
	return nil
}

func TestStepSecondOperationPanicsNamingThread(t *testing.T) {
	eng, k := newWhiteboxKernel(t, 1)
	k.CreateStepThread("greedy", NormalPriority, func(tc *ThreadContext) {
		tc.Exec(1000)
		tc.Sleep(1000)
	})
	msg, _ := stepUntilPanic(eng).(string)
	if !strings.Contains(msg, "second operation") || !strings.Contains(msg, "greedy") {
		t.Fatalf("panic = %q, want a second-operation panic naming the thread", msg)
	}
}

func TestStepBodyReturningWithoutOperationEndsThread(t *testing.T) {
	eng, k := newWhiteboxKernel(t, 1)
	calls := 0
	th := k.CreateStepThread("once", NormalPriority, func(tc *ThreadContext) {
		calls++
		if calls == 1 {
			tc.Exec(5000)
		}
	})
	// A higher-priority joiner blocks on Done first and is woken by the
	// exit.
	var joinedAt sim.Time
	waited := false
	k.CreateStepThread("joiner", NormalPriority+2, func(tc *ThreadContext) {
		if waited {
			joinedAt = tc.Now()
			return
		}
		waited = true
		tc.Wait(th.Done())
	})
	eng.RunUntil(10_000_000)
	if calls != 2 {
		t.Fatalf("body called %d times, want 2 (Exec, then return without an operation)", calls)
	}
	if !th.Terminated() || !th.Done().Signaled() {
		t.Fatalf("thread %s, done signaled %v: want terminated and signaled", th.State(), th.Done().Signaled())
	}
	if th.CPUTime() != 5000 {
		t.Fatalf("cpu time %d, want 5000", th.CPUTime())
	}
	if joinedAt == 0 {
		t.Fatal("joiner waiting on Done() never woke")
	}
}

func TestStepInlineDoPanicSurfacesThroughEngine(t *testing.T) {
	eng, k := newWhiteboxKernel(t, 1)
	k.CreateStepThread("bugcheck", NormalPriority, func(tc *ThreadContext) {
		tc.Do(func() { panic("KeBugCheckEx") })
	})
	if pv := stepUntilPanic(eng); pv != "KeBugCheckEx" {
		t.Fatalf("panic through eng.Step = %v, want KeBugCheckEx", pv)
	}
}

// TestBlockingBodyPanicSurfacesThroughEngine: the adapter re-raises a
// panic in a CreateThread body's own code on the kernel goroutine, where
// the engine's caller can recover it.
func TestBlockingBodyPanicSurfacesThroughEngine(t *testing.T) {
	eng, k := newWhiteboxKernel(t, 1)
	k.CreateThread("faulty", NormalPriority, func(tc *ThreadContext) {
		tc.Exec(1000)
		panic("driver fault")
	})
	if pv := stepUntilPanic(eng); pv != "driver fault" {
		t.Fatalf("panic through eng.Step = %v, want the body's", pv)
	}
}
