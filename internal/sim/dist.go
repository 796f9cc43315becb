package sim

import (
	"fmt"
	"math"
)

// Dist is a distribution of durations in cycles. OS personalities express
// every overhead source (interrupt-masked windows, dispatch-disabled
// windows, ISR bodies, DPC bodies, context-switch costs) as a Dist; drawing
// from it requires the caller's RNG so that distributions themselves stay
// stateless and shareable.
type Dist interface {
	// Draw samples one duration. Implementations must never return a
	// negative value.
	Draw(r *RNG) Cycles
	// Mean returns the distribution's expected value in cycles. It is used
	// by analytic reports and sanity tests, not by the simulation itself.
	Mean() float64
	fmt.Stringer
}

// Constant is a degenerate distribution that always returns V.
type Constant Cycles

// Draw implements Dist.
func (c Constant) Draw(*RNG) Cycles { return Cycles(c) }

// Mean implements Dist.
func (c Constant) Mean() float64 { return float64(c) }

func (c Constant) String() string { return fmt.Sprintf("const(%d)", int64(c)) }

// Uniform is a uniform distribution over [Lo, Hi].
type Uniform struct {
	Lo, Hi Cycles
}

// Draw implements Dist.
func (u Uniform) Draw(r *RNG) Cycles {
	if u.Hi <= u.Lo {
		return u.Lo
	}
	return u.Lo + r.Cyclesn(u.Hi-u.Lo+1)
}

// Mean implements Dist.
func (u Uniform) Mean() float64 { return float64(u.Lo+u.Hi) / 2 }

func (u Uniform) String() string { return fmt.Sprintf("uniform[%d,%d]", int64(u.Lo), int64(u.Hi)) }

// Pareto is a bounded Pareto distribution: scale Xm (the minimum value),
// shape Alpha, hard upper bound Cap (0 = unbounded). Heavy tails with
// alpha in (1, 2] reproduce the long, thin latency tails of Figure 4.
type Pareto struct {
	Xm    Cycles
	Alpha float64
	Cap   Cycles
}

// Draw implements Dist.
func (p Pareto) Draw(r *RNG) Cycles {
	v := Cycles(r.Pareto(float64(p.Xm), p.Alpha))
	if v < p.Xm {
		v = p.Xm
	}
	if p.Cap > 0 && v > p.Cap {
		v = p.Cap
	}
	return v
}

// Mean implements Dist. For alpha <= 1 the unbounded mean diverges; the
// reported mean is then the cap (or Xm when uncapped), which is the most
// useful number for sanity checks.
func (p Pareto) Mean() float64 {
	if p.Alpha > 1 {
		m := p.Alpha * float64(p.Xm) / (p.Alpha - 1)
		if p.Cap > 0 && m > float64(p.Cap) {
			return float64(p.Cap)
		}
		return m
	}
	if p.Cap > 0 {
		return float64(p.Cap)
	}
	return float64(p.Xm)
}

func (p Pareto) String() string {
	return fmt.Sprintf("pareto(xm=%d,alpha=%.2f,cap=%d)", int64(p.Xm), p.Alpha, int64(p.Cap))
}

// LogNormal is a log-normal distribution parameterized by the mu/sigma of
// the underlying normal (in log-cycles), optionally clamped to Cap.
type LogNormal struct {
	Mu, Sigma float64
	Cap       Cycles
}

// Draw implements Dist.
func (l LogNormal) Draw(r *RNG) Cycles {
	v := Cycles(r.LogNorm(l.Mu, l.Sigma))
	if v < 0 {
		v = 0
	}
	if l.Cap > 0 && v > l.Cap {
		v = l.Cap
	}
	return v
}

// Mean implements Dist (ignores the cap; close enough for reporting).
func (l LogNormal) Mean() float64 {
	return math.Exp(l.Mu + l.Sigma*l.Sigma/2)
}

func (l LogNormal) String() string {
	return fmt.Sprintf("lognormal(mu=%.2f,sigma=%.2f)", l.Mu, l.Sigma)
}

// Mixture draws from one of several component distributions with the given
// weights. It models overhead sources that are usually cheap but
// occasionally catastrophic (e.g. the Win98 VMM contiguous-memory
// allocations of Table 4).
type Mixture struct {
	Components []Dist
	Weights    []float64 // same length as Components; need not sum to 1
	total      float64
}

// NewMixture builds a mixture, validating shape.
func NewMixture(components []Dist, weights []float64) *Mixture {
	if len(components) == 0 || len(components) != len(weights) {
		panic("sim: mixture needs equal non-zero counts of components and weights")
	}
	m := &Mixture{Components: components, Weights: weights}
	for _, w := range weights {
		if w < 0 {
			panic("sim: negative mixture weight")
		}
		m.total += w
	}
	if m.total <= 0 {
		panic("sim: mixture weights sum to zero")
	}
	return m
}

// Draw implements Dist.
func (m *Mixture) Draw(r *RNG) Cycles {
	x := r.Float64() * m.total
	for i, w := range m.Weights {
		if x < w || i == len(m.Weights)-1 {
			return m.Components[i].Draw(r)
		}
		x -= w
	}
	return m.Components[len(m.Components)-1].Draw(r)
}

// Mean implements Dist.
func (m *Mixture) Mean() float64 {
	var sum float64
	for i, c := range m.Components {
		sum += m.Weights[i] / m.total * c.Mean()
	}
	return sum
}

func (m *Mixture) String() string { return fmt.Sprintf("mixture(%d components)", len(m.Components)) }
