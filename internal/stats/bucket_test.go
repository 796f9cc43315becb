package stats

import (
	"math"
	"math/big"
	"testing"

	"wdmlat/internal/sim"
)

// oracleIndex is an independent reference for bucketIndex: a linear scan for
// the largest bucket whose inclusive lower edge is <= v. bucketIndex computes
// the same thing with bits.Len64 plus a binary search inside one octave; the
// two must agree everywhere.
func oracleIndex(v sim.Cycles) int {
	if v < 1 {
		return 0
	}
	idx := 1
	for i := 2; i <= numBuckets+1; i++ {
		if uint64(v) >= bucketEdges[i] {
			idx = i
		}
	}
	return idx
}

// TestBucketEdgesExact sweeps every bucket edge in [1, 2^40) — each edge and
// the values one below and one above it — plus every power of two and its
// predecessor, checking bucketIndex against the linear-scan oracle. This pins
// down the boundary behaviour the old floating-point formulation
// (1 + int(math.Log2(v)*bucketsPerOctave)) delivered only up to rounding; the
// integer edge table must place every boundary exactly. Note that in the
// lowest octaves consecutive edges collide (e.g. ceil(2^(2/16)) and
// ceil(2^(3/16)) are both 2), so some buckets are empty by construction and a
// collided edge belongs to the last bucket of its run — the oracle encodes
// exactly that.
func TestBucketEdgesExact(t *testing.T) {
	check := func(v sim.Cycles) {
		t.Helper()
		if got, want := bucketIndex(v), oracleIndex(v); got != want {
			t.Errorf("bucketIndex(%d) = %d, want %d", v, got, want)
		}
	}
	for i := 1; i <= numBuckets+1; i++ {
		edge := sim.Cycles(bucketEdges[i])
		check(edge - 1)
		check(edge)
		check(edge + 1)
	}
	// Exact powers of two start their octave: 2^k -> bucket 1+16k. This is
	// the boundary family the float formulation got right only because Go's
	// math.Log2 special-cases powers of two; the integer table must not
	// regress it.
	for k := 0; k < octaves; k++ {
		v := sim.Cycles(1) << uint(k)
		if got, want := bucketIndex(v), 1+k*bucketsPerOctave; got != want {
			t.Errorf("bucketIndex(1<<%d) = %d, want %d", k, got, want)
		}
		check(v - 1)
	}
	// Overflow: the first value past the top octave.
	if got := bucketIndex(sim.Cycles(1) << octaves); got != numBuckets+1 {
		t.Errorf("bucketIndex(1<<%d) = %d, want overflow %d", octaves, got, numBuckets+1)
	}
	check(math.MaxInt64)
	check(0)
	check(-5)
}

// TestBucketEdgesMonotonic checks the edge table never decreases, is
// strictly increasing once the ~4.4% bucket width exceeds one integer
// (edges >= 32), and that bucketLow returns the table edge.
func TestBucketEdgesMonotonic(t *testing.T) {
	for i := 2; i <= numBuckets+1; i++ {
		if bucketEdges[i] < bucketEdges[i-1] {
			t.Fatalf("edge %d (%d) < edge %d (%d)", i, bucketEdges[i], i-1, bucketEdges[i-1])
		}
		if bucketEdges[i-1] >= 32 && bucketEdges[i] <= bucketEdges[i-1] {
			t.Fatalf("edge %d (%d) not above edge %d (%d)", i, bucketEdges[i], i-1, bucketEdges[i-1])
		}
	}
	for i := 1; i <= numBuckets; i++ {
		if got := bucketLow(i); got != sim.Cycles(bucketEdges[i]) {
			t.Fatalf("bucketLow(%d) = %d, want %d", i, got, bucketEdges[i])
		}
	}
}

// TestBucketEdgesMatchFloatGeometry ties the integer table back to the
// histogram's documented geometry: each edge is the ceiling of
// 2^((i-1)/bucketsPerOctave) to within the float tolerance of Exp2.
func TestBucketEdgesMatchFloatGeometry(t *testing.T) {
	for i := 1; i <= numBuckets+1; i++ {
		want := math.Exp2(float64(i-1) / bucketsPerOctave)
		got := float64(bucketEdges[i])
		if got < want-1e-6 || got-want >= 1+1e-6 {
			t.Errorf("edge %d = %d, not the ceiling of %g", i, bucketEdges[i], want)
		}
	}
}

// TestBucketTablesMatchExactDerivation checks every entry of the tables
// the package builds from octaveMantissa against an independent exact
// derivation in math/big: each mantissa is the integer 16th root of
// 2^(1008+j), each edge is ⌈2^(n/16)⌉ as the integer 16th root of 2^n plus
// one (or 1<<k when n = 16k), and subGuess[m] = max{ j : 2^(80+j) <=
// (32+m)^16 }, which holds iff (32+m)^16 has a bit length of at least
// 81+j. Four nested integer square roots preserve the floor at each step.
func TestBucketTablesMatchExactDerivation(t *testing.T) {
	root16 := func(x *big.Int) *big.Int {
		for i := 0; i < 4; i++ {
			x.Sqrt(x)
		}
		return x
	}
	for j := 0; j < bucketsPerOctave; j++ {
		want := root16(new(big.Int).Lsh(big.NewInt(1), uint(1008+j)))
		if !want.IsUint64() || octaveMantissa[j] != want.Uint64() {
			t.Errorf("octaveMantissa[%d] = %#x, want %#x", j, octaveMantissa[j], want)
		}
	}
	exactEdge := func(n int) uint64 {
		if n%bucketsPerOctave == 0 {
			return 1 << uint(n/bucketsPerOctave)
		}
		return root16(new(big.Int).Lsh(big.NewInt(1), uint(n))).Uint64() + 1
	}
	if bucketEdges[0] != 0 {
		t.Errorf("underflow edge = %d, want 0", bucketEdges[0])
	}
	for i := 1; i <= numBuckets+1; i++ {
		if want := exactEdge(i - 1); bucketEdges[i] != want {
			t.Errorf("bucketEdges[%d] = %d, want %d", i, bucketEdges[i], want)
		}
	}
	for m := int64(0); m < 32; m++ {
		x := new(big.Int).Exp(big.NewInt(32+m), big.NewInt(16), nil)
		if want := uint8(x.BitLen() - 81); subGuess[m] != want {
			t.Errorf("subGuess[%d] = %d, want %d", m, subGuess[m], want)
		}
	}
}
