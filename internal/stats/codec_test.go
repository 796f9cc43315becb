package stats

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"wdmlat/internal/canon"
	"wdmlat/internal/sim"
)

// histogramWire is the struct encoding/json once encoded histograms
// through, kept as the oracle for WalkHistogram's bytes. Counts is sparse,
// keyed by bucket index.
type histogramWire struct {
	Freq   sim.Freq       `json:"freq"`
	N      uint64         `json:"n"`
	Sum    float64        `json:"sum"`
	SumSq  float64        `json:"sumsq"`
	Min    sim.Cycles     `json:"min"`
	Max    sim.Cycles     `json:"max"`
	Counts map[int]uint64 `json:"counts,omitempty"`
}

func oracleJSON(t *testing.T, h *Histogram) []byte {
	t.Helper()
	w := histogramWire{Freq: h.freq, N: h.n, Sum: h.sum, SumSq: h.sumsq, Min: h.min, Max: h.max}
	for i, c := range h.counts {
		if c != 0 {
			if w.Counts == nil {
				w.Counts = make(map[int]uint64)
			}
			w.Counts[i] = c
		}
	}
	data, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func encodeJSON(h *Histogram) ([]byte, error) { return canon.Append(nil, h, WalkHistogram) }

func decodeJSON(data []byte) (*Histogram, error) {
	h := new(Histogram)
	if err := canon.Parse(data, h, WalkHistogram); err != nil {
		return nil, err
	}
	return h, nil
}

// codecHistograms are the differential test's inputs: counts in buckets
// of one, two and three digits at the edges of each digit count, an empty
// histogram with its min/max sentinels, sums on both sides of the cutoffs
// where encoding/json switches floats to exponent form, and a histogram
// filled the ordinary way.
func codecHistograms() []*Histogram {
	var hs []*Histogram
	sparse := NewHistogram(sim.DefaultFreq)
	for k, i := range []int{0, 5, 9, 10, 99, 100, 641} {
		sparse.counts[i] = uint64(k*k*1000 + 1)
		sparse.n += sparse.counts[i]
	}
	sparse.sum, sparse.sumsq, sparse.min, sparse.max = 12345.5, 8.3e16, 0, 1<<41
	hs = append(hs, sparse, NewHistogram(sim.DefaultFreq))
	for _, s := range [][2]float64{
		{math.Nextafter(1e-6, 0), 1e-6},
		{math.Nextafter(1e21, 0), 1e21},
		{1e-7, 1e20},
		{5e-324, math.MaxFloat64},
		{math.Copysign(0, -1), 0.1},
		{-2.5e-9, -3e22},
	} {
		h := NewHistogram(sim.DefaultFreq)
		h.Add(1000)
		h.sum, h.sumsq = s[0], s[1]
		hs = append(hs, h)
	}
	filled := NewHistogram(sim.DefaultFreq)
	for _, v := range []sim.Cycles{0, 1, 2, 3, 31, 32, 33, 999, 123456, 1 << 39, 1 << 41} {
		filled.Add(v)
	}
	filled.AddMillis(17.3)
	return append(hs, filled)
}

// TestHistogramCodecMatchesEncodingJSON: WalkHistogram writes exactly the
// bytes encoding/json writes for the wire struct, and parses them back to
// an identical histogram.
func TestHistogramCodecMatchesEncodingJSON(t *testing.T) {
	for i, h := range codecHistograms() {
		got, err := encodeJSON(h)
		if err != nil {
			t.Fatal(err)
		}
		if want := oracleJSON(t, h); !bytes.Equal(got, want) {
			t.Fatalf("histogram %d:\ngot  %s\nwant %s", i, got, want)
		}
		back, err := decodeJSON(got)
		if err != nil {
			t.Fatalf("histogram %d: decode %s: %v", i, got, err)
		}
		if !reflect.DeepEqual(h, back) {
			t.Fatalf("histogram %d: round-trip changed it", i)
		}
	}
}

// TestHistogramCodecRoundTrip: decode(encode(h)) must be field-for-field
// identical — bucket counts, float accumulators (bit-exact), and extrema —
// because resumed campaigns replay stored histograms into byte-identical
// artifacts.
func TestHistogramCodecRoundTrip(t *testing.T) {
	h := NewHistogram(sim.DefaultFreq)
	for _, v := range []sim.Cycles{0, 1, 2, 3, 31, 32, 33, 999, 123456, 1 << 39, 1 << 41} {
		h.Add(v)
	}
	h.AddMillis(0.001)
	h.AddMillis(17.3)

	data, err := encodeJSON(h)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(h, got) {
		t.Fatalf("round-trip changed histogram:\nwant %+v\ngot  %+v", h, got)
	}
	if got.Mean() != h.Mean() || got.StdDev() != h.StdDev() {
		t.Fatalf("float accumulators not bit-exact after round-trip")
	}
}

// TestHistogramCodecEmpty: an empty histogram's min/max sentinels survive
// the round-trip, so Min()/Max() still report 0 afterwards.
func TestHistogramCodecEmpty(t *testing.T) {
	h := NewHistogram(sim.DefaultFreq)
	data, err := encodeJSON(h)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(h, got) {
		t.Fatalf("empty histogram round-trip not identical")
	}
	if got.Min() != 0 || got.Max() != 0 || got.N() != 0 {
		t.Fatalf("empty histogram semantics changed: min %d max %d n %d", got.Min(), got.Max(), got.N())
	}
}

// TestHistogramCodecRejectsBadInput: corrupt or non-canonical wire data
// errors instead of silently producing a broken histogram.
func TestHistogramCodecRejectsBadInput(t *testing.T) {
	const head = `{"freq":300000000,"n":1,"sum":1,"sumsq":1,"min":1,"max":1`
	for _, bad := range []string{
		`{"freq":0,"n":0,"sum":0,"sumsq":0,"min":0,"max":0}`,             // non-positive frequency
		head + `,"counts":{"99999":1}}`,                                  // bucket index out of range
		head + `,"counts":{"-1":1}}`,                                     // negative bucket index
		head + `,"counts":{"3":1,"10":1}}`,                               // keys in numeric, not string, order
		head + `,"counts":{"3":1,"3":1}}`,                                // repeated key
		head + `,"counts":{"3":0}}`,                                      // zero count
		head + `,"counts":{}}`,                                           // empty counts
		head + `,"counts":{"03":1}}`,                                     // leading zero
		head + `,"extra":1}`,                                             // unknown field
		`{"n":1,"freq":300000000,"sum":1,"sumsq":1,"min":1,"max":1}`,     // fields reordered
		`{"freq":300000000, "n":1,"sum":1,"sumsq":1,"min":1,"max":1}`,    // whitespace
		`{"freq":300000000,"n":1,"sum":1.0,"sumsq":1,"min":1,"max":1}`,   // non-shortest float
		`{"freq":300000000,"n":1,"sum":1e400,"sumsq":1,"min":1,"max":1}`, // float overflow
		`{"freq":300000000,"n":-1,"sum":1,"sumsq":1,"min":1,"max":1}`,    // negative count
		`{"freq":300000000,"n":1,"sum":1,"sumsq":1,"min":-0,"max":1}`,    // -0 integer
		head + `}x`, // trailing data
		head,        // truncated
	} {
		if _, err := decodeJSON([]byte(bad)); err == nil {
			t.Errorf("decode of %s succeeded, want error", bad)
		}
	}
}

// FuzzHistogramJSON: the parser never panics, and any input it accepts
// re-encodes to exactly itself.
func FuzzHistogramJSON(f *testing.F) {
	for _, h := range codecHistograms() {
		data, err := encodeJSON(h)
		if err != nil {
			f.Fatal(err)
		}
		flipped := bytes.Clone(data)
		flipped[len(flipped)/2] ^= 0x01
		f.Add(data)
		f.Add(data[:len(data)/2])
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := decodeJSON(data)
		if err != nil {
			return
		}
		again, err := encodeJSON(h)
		if err != nil {
			t.Fatalf("re-encode of accepted %q: %v", data, err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted non-canonical input\n in  %q\n out %q", data, again)
		}
	})
}
