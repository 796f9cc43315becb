// Package stats implements the statistical machinery of the paper's
// methodology: latency distributions kept as log-scale histograms (Figure 4
// is plotted log-log precisely because the distributions are "highly
// nonsymmetric, with a very long tail on one side", §4.2), complementary
// distributions, tail-event rates, and the expected worst case over an
// observation horizon (the hourly/daily/weekly columns of Table 3).
package stats

import (
	"fmt"
	"math"
	"math/bits"

	"wdmlat/internal/sim"
)

// Histogram bucket geometry: logarithmic buckets, bucketsPerOctave per
// doubling, spanning [minValue, minValue<<octaves). At 16 buckets per
// octave the relative resolution is ~4.4%, ample for order-of-magnitude
// latency comparisons while keeping memory constant regardless of sample
// count.
const (
	bucketsPerOctave = 16
	octaves          = 40 // covers [1, 2^40) cycles ≈ up to ~1 hour at 300 MHz
	numBuckets       = bucketsPerOctave * octaves
)

// Histogram is a fixed-memory log-scale histogram of non-negative cycle
// counts. The zero value is not usable; call NewHistogram.
type Histogram struct {
	freq     sim.Freq
	counts   [numBuckets + 2]uint64 // +underflow (index 0 handles <1), +overflow
	n        uint64
	sum      float64
	sumsq    float64
	min, max sim.Cycles
}

// NewHistogram creates an empty histogram that formats values at the given
// clock frequency.
func NewHistogram(freq sim.Freq) *Histogram {
	if freq <= 0 {
		panic("stats: non-positive frequency")
	}
	return &Histogram{freq: freq, min: math.MaxInt64, max: -1}
}

// Freq returns the histogram's clock frequency.
func (h *Histogram) Freq() sim.Freq { return h.freq }

// bucketEdges[i] is the inclusive integer lower edge of bucket i in cycles:
// the smallest integer >= 2^((i-1)/bucketsPerOctave). Edges are computed
// once, exactly, in integer arithmetic — the old per-call
// math.Log2/math.Exp2 formulation both paid a transcendental call per
// sample and could drift a value across a bucket boundary when the float
// rounding of lg*bucketsPerOctave landed on the wrong side of an integer.
// bucketEdges[0] is 0 (underflow) and bucketEdges[numBuckets+1] is the
// overflow edge 1<<octaves.
var bucketEdges [numBuckets + 2]uint64

// smallIdx[u] is the bucket index of u for u in [1,32) — the low octaves
// where integer edges collide and a direct table is both simplest and
// exact. smallIdx[0] is unused (values < 1 underflow before the lookup).
var smallIdx [32]uint8

// subGuess[m] is a lower bound for the sub-octave bucket of any value
// whose five mantissa bits below the leading 1 are m, valid in every
// octave k >= 5: subGuess[m] = max{ j : 2^(j/16) <= 1 + m/32 }. For a
// value u with mantissa m in octave k, u >= 2^(k-5)(32+m) >=
// ceil(2^(k+j/16)) so edge[subGuess[m]] is always <= u, and because a
// 1/32 mantissa step spans less than one 2^(1/16) bucket ratio the true
// sub-bucket is subGuess[m] or subGuess[m]+1 — resolved by a single edge
// comparison in bucketIndex.
var subGuess [32]uint8

// octaveMantissa[j] is ⌊2^(63+j/16)⌋, the sub-octave ratio 2^(j/16) as a
// 64-bit fixed-point mantissa, exact to the last bit: it is the integer
// 16th root of 2^(1008+j), which TestBucketTablesMatchExactDerivation
// re-derives with math/big. Shifting it right by 63-k floors 2^(k+j/16)
// exactly, because flooring twice by integer divisions floors once.
var octaveMantissa = [bucketsPerOctave]uint64{
	0x8000000000000000, 0x85aac367cc487b14, 0x8b95c1e3ea8bd6e6, 0x91c3d373ab11c336,
	0x9837f0518db8a96f, 0x9ef5326091a111ad, 0xa5fed6a9b15138ea, 0xad583eea42a14ac6,
	0xb504f333f9de6484, 0xbd08a39f580c36be, 0xc5672a115506dadd, 0xce248c151f8480e3,
	0xd744fccad69d6af4, 0xe0ccdeec2a94e111, 0xeac0c6e7dd24392e, 0xf5257d152486cc2c,
}

func init() {
	// The edge for n = 16k+j is ⌈2^(k+j/16)⌉: the integer 1<<k when j is
	// 0, and otherwise the floor of an irrational number plus one.
	for n := 0; n <= numBuckets; n++ {
		k, j := uint(n/bucketsPerOctave), n%bucketsPerOctave
		if j == 0 {
			bucketEdges[n+1] = 1 << k
		} else {
			bucketEdges[n+1] = octaveMantissa[j]>>(63-k) + 1
		}
	}
	for u := uint64(1); u < 32; u++ {
		i := 1
		for bucketEdges[i+1] <= u {
			i++
		}
		smallIdx[u] = uint8(i)
	}
	// max{ j : 2^(j/16) <= 1+m/32 } = max{ j : 2^(63+j/16) <= (32+m)<<58 }.
	// j = 0 always qualifies; for j > 0 the left side is irrational, so it
	// is below the integer bound exactly when its floor, octaveMantissa[j],
	// is, and the mantissas increase with j.
	for m := range subGuess {
		for j := 1; j < bucketsPerOctave && octaveMantissa[j] < uint64(32+m)<<58; j++ {
			subGuess[m]++
		}
	}
}

// bucketIndex maps a value to its bucket: the octave comes from the bit
// length of v, the sub-octave from the subGuess mantissa table plus at
// most one exact-edge comparison (values below 32 use the direct
// smallIdx table). Values < 1 go to the underflow bucket 0; values
// beyond the top octave go to the overflow bucket.
func bucketIndex(v sim.Cycles) int {
	if v < 1 {
		return 0
	}
	u := uint64(v)
	if u < 32 {
		return int(smallIdx[u])
	}
	k := uint(bits.Len64(u)) - 1
	if k >= octaves {
		return numBuckets + 1
	}
	i := 1 + int(k)*bucketsPerOctave + int(subGuess[(u>>(k-5))&31])
	if u >= bucketEdges[i+1] {
		i++
	}
	return i
}

// bucketLow returns the inclusive lower edge of bucket i in cycles. The
// ceiling keeps integer values inside their bucket's half-open interval
// even in the lowest octaves where edges would otherwise truncate together.
func bucketLow(i int) sim.Cycles {
	if i <= 0 {
		return 0
	}
	if i > numBuckets {
		i = numBuckets + 1
	}
	return sim.Cycles(bucketEdges[i])
}

// Add records one latency sample. Negative samples panic: a latency cannot
// be negative, and silently clamping would hide measurement bugs.
func (h *Histogram) Add(v sim.Cycles) {
	if v < 0 {
		panic(fmt.Sprintf("stats: negative latency sample %d", v))
	}
	h.counts[bucketIndex(v)]++
	h.n++
	f := float64(v)
	h.sum += f
	h.sumsq += f * f
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// AddMillis records a sample given in milliseconds.
func (h *Histogram) AddMillis(ms float64) {
	h.Add(h.freq.FromMillis(ms))
}

// N returns the sample count.
func (h *Histogram) N() uint64 { return h.n }

// Min returns the smallest sample (0 if empty).
func (h *Histogram) Min() sim.Cycles {
	if h.n == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest sample (0 if empty).
func (h *Histogram) Max() sim.Cycles {
	if h.n == 0 {
		return 0
	}
	return h.max
}

// Mean returns the sample mean in cycles.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// StdDev returns the sample standard deviation in cycles.
func (h *Histogram) StdDev() float64 {
	if h.n < 2 {
		return 0
	}
	m := h.Mean()
	v := h.sumsq/float64(h.n) - m*m
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// MaxMillis returns the largest sample in milliseconds.
func (h *Histogram) MaxMillis() float64 { return h.freq.Millis(h.Max()) }

// MeanMillis returns the mean in milliseconds.
func (h *Histogram) MeanMillis() float64 {
	return h.Mean() / float64(h.freq) * 1e3
}

// CountAtLeast returns the number of samples in buckets whose lower edge is
// >= v (i.e., samples guaranteed to be >= the bucket floor containing v;
// the count is taken from the bucket containing v upward, which
// slightly over-counts by at most one bucket width — conservative in the
// direction the worst-case analysis wants).
func (h *Histogram) CountAtLeast(v sim.Cycles) uint64 {
	var c uint64
	for i := bucketIndex(v); i < len(h.counts); i++ {
		c += h.counts[i]
	}
	return c
}

// CCDF returns the fraction of samples >= v (bucket-resolution), in [0,1].
func (h *Histogram) CCDF(v sim.Cycles) float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.CountAtLeast(v)) / float64(h.n)
}

// Quantile returns the q-quantile (q in [0,1]) at bucket resolution.
func (h *Histogram) Quantile(q float64) sim.Cycles {
	if h.n == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	target := uint64(q * float64(h.n))
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i]
		if cum > target {
			return bucketLow(i)
		}
	}
	return h.max
}

// Merge adds other's samples into h. The frequencies must match.
func (h *Histogram) Merge(other *Histogram) {
	if h.freq != other.freq {
		panic("stats: merging histograms with different frequencies")
	}
	for i := range h.counts {
		h.counts[i] += other.counts[i]
	}
	h.n += other.n
	h.sum += other.sum
	h.sumsq += other.sumsq
	if other.n > 0 {
		if other.min < h.min {
			h.min = other.min
		}
		if other.max > h.max {
			h.max = other.max
		}
	}
}

// Clone returns a deep copy.
func (h *Histogram) Clone() *Histogram {
	cp := *h
	return &cp
}
