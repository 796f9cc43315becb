// Package interactive implements the Endo et al. interactive-event latency
// methodology the paper positions itself against (§1.2): measure the
// response time of simple user events (keystrokes, mouse clicks) on a
// loaded system. Interactive response is "generally regarded as being
// adequately responsive if the latencies are in the range of 50 to 150 ms"
// [20] — which, as the paper notes, "is considerably longer than the
// latency tolerances of the low latency drivers and multimedia applications
// that we consider here" (4–40 ms, Table 1).
//
// Running both methodologies on the same simulated machine makes the gap
// concrete: a system can be impeccably "responsive" by the interactive
// standard while missing multimedia deadlines constantly.
package interactive

import (
	"time"

	"wdmlat/internal/kernel"
	"wdmlat/internal/ospersona"
	"wdmlat/internal/sim"
	"wdmlat/internal/stats"
	"wdmlat/internal/workload"
)

// Config describes one interactive-latency run.
type Config struct {
	OS ospersona.OS
	// Workload is the concurrent stress (the user types while the machine
	// works).
	Workload workload.Class
	Idle     bool
	Duration time.Duration
	Seed     uint64
	// EventEveryMS is the mean spacing of user input events (default 300,
	// unhurried human input — not MS-Test rates).
	EventEveryMS float64
	// EchoCostMS is the foreground processing per event: message
	// dispatch, edit, repaint (default 8 ms on the 300 MHz machine).
	EchoCostMS float64
	// Priority of the foreground thread (default 9: normal + foreground
	// boost).
	Priority int
}

func (c *Config) fillDefaults() {
	if c.Duration == 0 {
		c.Duration = time.Minute
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.EventEveryMS <= 0 {
		c.EventEveryMS = 300
	}
	if c.EchoCostMS <= 0 {
		c.EchoCostMS = 8
	}
	if c.Priority == 0 {
		c.Priority = kernel.NormalPriority + 1
	}
}

// Result is a measured interactive-response distribution.
type Result struct {
	OSName   string
	Events   uint64
	Response *stats.Histogram // input event -> echo painted
	Freq     sim.Freq
}

// WithinMS returns the fraction of events echoed within the given bound
// (the Shneiderman 50–150 ms adequacy band is the interesting range).
func (r *Result) WithinMS(ms float64) float64 {
	if r.Response.N() == 0 {
		return 0
	}
	return 1 - r.Response.CCDF(r.Freq.FromMillis(ms))
}

// Run measures keystroke-to-echo response times under load.
func Run(cfg Config) *Result {
	cfg.fillDefaults()
	m := ospersona.Build(cfg.OS, ospersona.Options{Seed: cfg.Seed})
	defer m.Shutdown()

	res := &Result{
		OSName:   m.Profile.Name,
		Response: stats.NewHistogram(m.Freq()),
		Freq:     m.Freq(),
	}

	// The foreground application: wakes per input event, processes and
	// repaints, records the end-to-end response time.
	wake := m.Kernel.NewEvent("fg.input", kernel.SynchronizationEvent)
	var pressedAt sim.Time
	echoCost := m.MS(cfg.EchoCostMS)
	echo := func() {
		res.Response.Add(m.CPU.TSC().Sub(pressedAt))
		res.Events++
	}
	// A step body (see kernel.ThreadContext) with pc as its program
	// counter: wait for input, process and repaint, record the response.
	pc := 0
	m.Kernel.CreateStepThread("foreground", cfg.Priority, func(tc *kernel.ThreadContext) {
		switch pc {
		case 0:
			pc = 1
			tc.Wait(wake)
		case 1:
			pc = 2
			tc.Exec(echoCost)
		case 2:
			pc = 0
			tc.Do(echo)
		}
	})

	// The typist: one event at a time (humans wait for the echo), mean
	// spacing EventEveryMS.
	rng := m.Eng.RNG().Split()
	var press func(sim.Time)
	press = func(sim.Time) {
		pressedAt = m.Eng.Now()
		m.UIEvent() // the input also exercises the UI path (Win16 lock &c.)
		m.Kernel.SetEvent(wake)
		m.Eng.After(sim.Cycles(rng.Exp(float64(m.MS(cfg.EventEveryMS))))+m.MS(1), press)
	}
	m.Eng.After(m.MS(50), press)

	m.RunFor(m.Freq().Cycles(200 * time.Millisecond))
	if !cfg.Idle {
		gen := workload.New(cfg.Workload, m)
		gen.Start()
	}
	m.RunFor(m.Freq().Cycles(cfg.Duration))
	return res
}
