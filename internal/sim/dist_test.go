package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func drawMany(d Dist, n int, seed uint64) []Cycles {
	r := NewRNG(seed)
	out := make([]Cycles, n)
	for i := range out {
		out[i] = d.Draw(r)
	}
	return out
}

func meanOf(xs []Cycles) float64 {
	var sum float64
	for _, x := range xs {
		sum += float64(x)
	}
	return sum / float64(len(xs))
}

func TestConstantDist(t *testing.T) {
	d := Constant(1234)
	for _, v := range drawMany(d, 10, 1) {
		if v != 1234 {
			t.Fatalf("constant drew %d", v)
		}
	}
	if d.Mean() != 1234 {
		t.Fatalf("mean = %v", d.Mean())
	}
}

func TestUniformDistBoundsAndMean(t *testing.T) {
	d := Uniform{Lo: 100, Hi: 200}
	xs := drawMany(d, 20000, 2)
	for _, x := range xs {
		if x < 100 || x > 200 {
			t.Fatalf("uniform drew %d outside [100,200]", x)
		}
	}
	if m := meanOf(xs); math.Abs(m-150) > 2 {
		t.Fatalf("uniform mean %v, want ~150", m)
	}
	if d.Mean() != 150 {
		t.Fatalf("analytic mean %v", d.Mean())
	}
}

func TestUniformDegenerate(t *testing.T) {
	d := Uniform{Lo: 7, Hi: 7}
	if v := d.Draw(NewRNG(1)); v != 7 {
		t.Fatalf("degenerate uniform drew %d", v)
	}
}

// drawExp draws n values from RNG.Exp, the exponential the workloads'
// arrival processes use.
func drawExp(mean float64, n int, seed uint64) []float64 {
	r := NewRNG(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = r.Exp(mean)
	}
	return out
}

func TestExponentialDist(t *testing.T) {
	xs := drawExp(1000, 50000, 3)
	var sum float64
	for _, x := range xs {
		if x < 0 {
			t.Fatalf("exp drew negative %v", x)
		}
		sum += x
	}
	if m := sum / float64(len(xs)); math.Abs(m-1000) > 30 {
		t.Fatalf("exp mean %v, want ~1000", m)
	}
}

func TestParetoTailHeavierThanExponential(t *testing.T) {
	// With matched medians, Pareto(alpha=1.2) should produce far more
	// >50x-median draws than an exponential. This property is what lets the
	// personality profiles reproduce Figure 4's long thin tails.
	p := Pareto{Xm: 1000, Alpha: 1.2}
	ps := drawMany(p, 100000, 5)
	es := drawExp(1700, 100000, 6)
	cp, ce := 0, 0
	for i := range ps {
		if ps[i] > 50000 {
			cp++
		}
		if es[i] > 50000 {
			ce++
		}
	}
	if cp <= ce*5 {
		t.Fatalf("pareto tail %d not much heavier than exp tail %d", cp, ce)
	}
}

func TestParetoRespectsBounds(t *testing.T) {
	d := Pareto{Xm: 500, Alpha: 1.5, Cap: 9000}
	for _, x := range drawMany(d, 50000, 7) {
		if x < 500 || x > 9000 {
			t.Fatalf("bounded pareto drew %d outside [500,9000]", x)
		}
	}
}

func TestParetoMean(t *testing.T) {
	d := Pareto{Xm: 1000, Alpha: 2}
	if m := d.Mean(); m != 2000 {
		t.Fatalf("pareto mean %v, want 2000", m)
	}
	heavy := Pareto{Xm: 1000, Alpha: 0.9, Cap: 5000}
	if m := heavy.Mean(); m != 5000 {
		t.Fatalf("heavy pareto reported mean %v, want cap 5000", m)
	}
}

func TestLogNormalPositive(t *testing.T) {
	d := LogNormal{Mu: 7, Sigma: 1.5, Cap: 1 << 30}
	for _, x := range drawMany(d, 20000, 8) {
		if x < 0 {
			t.Fatalf("lognormal drew negative %d", x)
		}
	}
	if d.Mean() <= 0 {
		t.Fatalf("lognormal mean %v", d.Mean())
	}
}

func TestMixtureWeights(t *testing.T) {
	m := NewMixture(
		[]Dist{Constant(1), Constant(1000)},
		[]float64{0.99, 0.01},
	)
	xs := drawMany(m, 100000, 9)
	big := 0
	for _, x := range xs {
		if x == 1000 {
			big++
		} else if x != 1 {
			t.Fatalf("mixture drew unexpected %d", x)
		}
	}
	frac := float64(big) / float64(len(xs))
	if frac < 0.007 || frac > 0.013 {
		t.Fatalf("rare component frequency %v, want ~0.01", frac)
	}
	if want := 0.99*1 + 0.01*1000; math.Abs(m.Mean()-want) > 1e-9 {
		t.Fatalf("mixture mean %v, want %v", m.Mean(), want)
	}
}

func TestMixtureValidation(t *testing.T) {
	assertPanics := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s should panic", name)
			}
		}()
		fn()
	}
	assertPanics("empty", func() { NewMixture(nil, nil) })
	assertPanics("mismatch", func() { NewMixture([]Dist{Constant(1)}, []float64{1, 2}) })
	assertPanics("negative", func() { NewMixture([]Dist{Constant(1)}, []float64{-1}) })
	assertPanics("zero-sum", func() { NewMixture([]Dist{Constant(1)}, []float64{0}) })
}

// Property: no distribution ever returns a negative duration.
func TestQuickDistributionsNonNegative(t *testing.T) {
	dists := []Dist{
		Constant(0),
		Uniform{Lo: 0, Hi: 1 << 20},
		Pareto{Xm: 100, Alpha: 1.1, Cap: 1 << 30},
		LogNormal{Mu: 5, Sigma: 2, Cap: 1 << 30},
		NewMixture([]Dist{Uniform{Lo: 0, Hi: 100}, LogNormal{Mu: 8, Sigma: 1.5}}, []float64{0.9, 0.1}),
	}
	for _, d := range dists {
		d := d
		f := func(seed uint64) bool {
			r := NewRNG(seed)
			for i := 0; i < 64; i++ {
				if d.Draw(r) < 0 {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Errorf("%s produced a negative draw: %v", d, err)
		}
	}
}

// Property: the RNG stream is reproducible from the seed and Split streams
// do not alias the parent stream.
func TestQuickRNGReproducible(t *testing.T) {
	f := func(seed uint64) bool {
		a, b := NewRNG(seed), NewRNG(seed)
		for i := 0; i < 16; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	parent := NewRNG(99)
	child := parent.Split()
	// The child stream should differ from the parent's subsequent stream.
	same := 0
	for i := 0; i < 64; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("parent and split child streams coincide %d/64 times", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 100000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGNormMoments(t *testing.T) {
	r := NewRNG(11)
	var sum, sum2 float64
	n := 200000
	for i := 0; i < n; i++ {
		v := r.Norm(10, 3)
		sum += v
		sum2 += v * v
	}
	mean := sum / float64(n)
	variance := sum2/float64(n) - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Fatalf("norm mean %v, want ~10", mean)
	}
	if math.Abs(math.Sqrt(variance)-3) > 0.05 {
		t.Fatalf("norm stddev %v, want ~3", math.Sqrt(variance))
	}
}
