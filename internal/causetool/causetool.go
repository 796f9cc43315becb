// Package causetool implements the paper's latency cause analysis tool
// (§2.3): it patches the PIT vector of the IDT with a hook that records the
// interrupted context (instruction pointer + code segment in the paper;
// module + function frames here, read from the kernel's occupancy stack,
// i.e. "symbols available") and the TSC into
// a circular buffer on every clock interrupt. When the latency measurement
// tool reports a latency above a preset threshold, the tool dumps the
// buffer as an episode; post-mortem analysis aggregates the samples into
// the module+function traces of Table 4 — obtained "in spite of the lack of
// source code" for the OS being diagnosed.
package causetool

import (
	"fmt"
	"io"
	"strings"

	"wdmlat/internal/cpu"
	"wdmlat/internal/kernel"
	"wdmlat/internal/sim"
)

// Source selects how samples are taken.
type Source int

const (
	// PITHook patches the PIT vector (the original §2.3 tool): samples
	// arrive at the clock rate and are blind inside interrupt-masked
	// windows.
	PITHook Source = iota
	// PerfCounterNMI programs a performance counter to deliver NMIs on
	// CPU_CLOCKS_UNHALTED overflow (§6.1 future work): sub-millisecond
	// resolution, and samples land even inside masked windows and ISRs.
	PerfCounterNMI
)

// String implements fmt.Stringer.
func (s Source) String() string {
	switch s {
	case PITHook:
		return "PIT IDT hook"
	case PerfCounterNMI:
		return "perf-counter NMI"
	default:
		return "Source(?)"
	}
}

// Sample is one hook observation: what was on-CPU when the sampling
// interrupt arrived. Stack is populated when stack walking is enabled
// (§6.1: "walk the stack so as to generate call trees instead of isolated
// instruction pointer samples"), outermost frame first.
type Sample struct {
	TSC   sim.Time
	Frame cpu.Frame
	Stack []cpu.Frame
}

// Episode is a dump of the circular buffer triggered by a long latency.
type Episode struct {
	Number    int
	At        sim.Time   // when the long latency was reported
	Latency   sim.Cycles // the triggering latency
	Samples   []Sample   // buffer contents covering the latency window
	Truncated bool       // ring was smaller than the window
}

// FrameCount is one line of the paper's post-mortem analysis.
type FrameCount struct {
	Frame cpu.Frame
	Count int
}

// Options configures the tool.
type Options struct {
	// RingSize is the circular buffer capacity in samples (default 64).
	RingSize int
	// Threshold is the latency at or above which an episode is dumped
	// (default 5 ms at the kernel's clock).
	Threshold sim.Cycles
	// MaxEpisodes bounds retained episodes (default 64); later episodes
	// are counted but not stored.
	MaxEpisodes int
	// HookCost is the hook's per-interrupt footprint in cycles (default
	// 80 — the tool is designed to be nearly free).
	HookCost sim.Cycles
	// Source selects PIT hooking (default, the published tool) or
	// perf-counter NMI sampling (§6.1).
	Source Source
	// SamplePeriod is the NMI sampling period (default 0.25 ms at the
	// kernel clock; ignored for the PIT hook, which samples every tick).
	SamplePeriod sim.Cycles
	// WalkStack records full call stacks instead of single frames (§6.1).
	WalkStack bool
}

// Tool is an attached cause analyzer.
type Tool struct {
	k    *kernel.Kernel
	opts Options

	ring   []Sample
	head   int
	filled bool
	frames []cpu.Frame // the kernel's frames at the last sample, reused

	episodes   []Episode
	triggered  uint64
	samples    uint64
	lastDumpAt sim.Time
	unhook     func()
	sampler    *kernel.PerfCounterSampler
}

// Attach hooks the machine's clock vector. The caller is responsible for
// respecting the OS rules: patching the IDT requires the Windows 9x legacy
// interface (the Lab only attaches the tool on personalities that allow it,
// exactly as the paper could not do this on NT without source access).
func Attach(k *kernel.Kernel, opts Options) *Tool {
	if opts.RingSize <= 0 {
		opts.RingSize = 64
	}
	if opts.Threshold <= 0 {
		opts.Threshold = k.CPU().Freq().FromMillis(5)
	}
	if opts.MaxEpisodes <= 0 {
		opts.MaxEpisodes = 64
	}
	if opts.HookCost <= 0 {
		opts.HookCost = 80
	}
	if opts.SamplePeriod <= 0 {
		opts.SamplePeriod = k.CPU().Freq().FromMillis(0.25)
	}
	t := &Tool{
		k:    k,
		opts: opts,
		ring: make([]Sample, opts.RingSize),
	}
	switch opts.Source {
	case PITHook:
		t.unhook = k.CPU().Hook(k.ClockVector(), t.hook)
	case PerfCounterNMI:
		k.SetNMIHandler(t.nmiSample)
		t.sampler = k.NewPerfCounterSampler(opts.SamplePeriod)
		t.sampler.Start()
	}
	return t
}

// Detach restores the original IDT entry / stops the performance counter.
func (t *Tool) Detach() {
	if t.unhook != nil {
		t.unhook()
		t.unhook = nil
	}
	if t.sampler != nil {
		t.sampler.Stop()
		t.sampler = nil
		t.k.SetNMIHandler(nil)
	}
}

// hook runs on every PIT interrupt, ahead of the OS clock ISR. The frame it
// records is the context the interrupt cut into: the next stack frame below
// the clock ISR itself, or the running thread, or idle.
func (t *Tool) hook(now sim.Time, chain cpu.Handler) {
	t.k.CPU().AddCharge(t.opts.HookCost)
	t.record()
	chain(now)
}

// nmiSample runs at NMI level from the perf-counter overflow (§6.1).
func (t *Tool) nmiSample(now sim.Time) {
	t.k.CPU().AddCharge(t.opts.HookCost)
	t.record()
}

// record stores one sample into the ring.
func (t *Tool) record() {
	s := Sample{TSC: t.k.CPU().TSC(), Frame: t.interruptedFrame()}
	if t.opts.WalkStack {
		st := append([]cpu.Frame{}, t.frames...)
		if len(st) > 0 {
			st = st[:len(st)-1] // drop the sampler's own frame
		}
		if len(st) == 0 && s.Frame != cpu.IdleFrame {
			st = []cpu.Frame{s.Frame}
		}
		s.Stack = st
	}
	i := t.head
	t.ring[i] = s
	t.head = (i + 1) % len(t.ring)
	if t.head == 0 {
		t.filled = true
	}
	t.samples++
}

// interruptedFrame resolves "what was executing when the clock fired". It
// reads the kernel's frames into t.frames, which record's stack walk
// copies.
func (t *Tool) interruptedFrame() cpu.Frame {
	t.frames = t.k.Frames(t.frames[:0])
	st := t.frames
	// The top frame is the clock ISR we are inside; the one below it is
	// the interrupted context (a DPC, an overhead episode, a nested ISR).
	if len(st) >= 2 {
		return st[len(st)-2]
	}
	if th := t.k.Current(); th != nil {
		return cpu.Frame{Module: th.Name, Function: ""}
	}
	return cpu.IdleFrame
}

// OnLatency is the trigger input: the latency measurement tool calls it for
// every completed thread-latency sample. Latencies at or above the
// threshold dump the ring.
func (t *Tool) OnLatency(lat sim.Cycles) {
	if lat < t.opts.Threshold {
		return
	}
	t.triggered++
	if len(t.episodes) >= t.opts.MaxEpisodes {
		return
	}
	now := t.k.CPU().TSC()
	window := now.Add(-lat)
	// Both measurement threads report the same long window (the 28 and 24
	// wakeups cross the threshold together); dump each window once.
	if len(t.episodes) > 0 && window < t.lastDumpAt {
		return
	}
	t.lastDumpAt = now
	ep := Episode{
		Number:  len(t.episodes),
		At:      now,
		Latency: lat,
	}
	// Collect ring samples inside the latency window, oldest first.
	n := len(t.ring)
	start := 0
	if t.filled {
		start = t.head
	} else {
		n = t.head
	}
	for i := 0; i < n; i++ {
		s := t.ring[(start+i)%len(t.ring)]
		if s.TSC >= window && s.TSC <= now {
			ep.Samples = append(ep.Samples, s)
		}
	}
	// If the window extends past the oldest retained sample, note it.
	if len(ep.Samples) > 0 {
		oldest := t.ring[start%len(t.ring)]
		if t.filled && oldest.TSC > window {
			ep.Truncated = true
		}
	}
	t.episodes = append(t.episodes, ep)
}

// Episodes returns the captured episodes.
func (t *Tool) Episodes() []Episode { return t.episodes }

// Triggered returns how many latencies crossed the threshold (captured or
// not).
func (t *Tool) Triggered() uint64 { return t.triggered }

// Samples returns the total hook observations.
func (t *Tool) Samples() uint64 { return t.samples }

// Analysis aggregates an episode's samples per frame, in first-appearance
// order — the paper's "N samples in MODULE function FUNC" lines.
func (e Episode) Analysis() []FrameCount {
	var out []FrameCount
	index := map[cpu.Frame]int{}
	for _, s := range e.Samples {
		if i, ok := index[s.Frame]; ok {
			out[i].Count++
			continue
		}
		index[s.Frame] = len(out)
		out = append(out, FrameCount{Frame: s.Frame, Count: 1})
	}
	return out
}

// TreeCount is one aggregated call tree from stack-walking samples.
type TreeCount struct {
	Path  []cpu.Frame
	Count int
}

// CallTrees aggregates stack-walking samples by identical call path, in
// first-appearance order — the §6.1 "call trees instead of isolated
// instruction pointer samples".
func (e Episode) CallTrees() []TreeCount {
	var out []TreeCount
	index := map[string]int{}
	for _, s := range e.Samples {
		if len(s.Stack) == 0 {
			continue
		}
		key := pathKey(s.Stack)
		if i, ok := index[key]; ok {
			out[i].Count++
			continue
		}
		index[key] = len(out)
		out = append(out, TreeCount{Path: s.Stack, Count: 1})
	}
	return out
}

func pathKey(st []cpu.Frame) string {
	var b strings.Builder
	for _, f := range st {
		b.WriteString(f.Module)
		b.WriteByte('!')
		b.WriteString(f.Function)
		b.WriteByte(';')
	}
	return b.String()
}

// FormatPath renders a call path as "A!_f -> B!_g".
func FormatPath(path []cpu.Frame) string {
	parts := make([]string, len(path))
	for i, f := range path {
		fn := f.Function
		if fn == "" {
			fn = "unknown"
		}
		if f.Module == "" {
			parts[i] = "idle"
			continue
		}
		parts[i] = f.Module + "!" + fn
	}
	return strings.Join(parts, " -> ")
}

// Format renders one episode in the Table 4 layout.
func (e Episode) Format(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "Analysis of latency episode number %d\n", e.Number)
	total := 0
	for _, fc := range e.Analysis() {
		fn := fc.Frame.Function
		if fn == "" {
			fn = "unknown"
		}
		fmt.Fprintf(&b, "%d samples in %s function %s\n", fc.Count, fc.Frame.Module, fn)
		total += fc.Count
	}
	b.WriteString(strings.Repeat("-", 49) + "\n")
	fmt.Fprintf(&b, "%d total samples in episode\n", total)
	if trees := e.CallTrees(); len(trees) > 0 {
		b.WriteString("call trees:\n")
		for _, tc := range trees {
			fmt.Fprintf(&b, "  %d x %s\n", tc.Count, FormatPath(tc.Path))
		}
	}
	if e.Truncated {
		b.WriteString("(ring buffer shorter than latency window; oldest samples lost)\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// FormatAll renders every retained episode.
func (t *Tool) FormatAll(w io.Writer) error {
	for i, e := range t.episodes {
		if i > 0 {
			if _, err := io.WriteString(w, "\n"); err != nil {
				return err
			}
		}
		if err := e.Format(w); err != nil {
			return err
		}
	}
	return nil
}
