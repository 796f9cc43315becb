package canon

import (
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// TestKeyLessMatchesStringOrder: keyLess orders int keys as encoding/json
// does, by their decimal strings.
func TestKeyLessMatchesStringOrder(t *testing.T) {
	keys := []int{0, 1, 3, 9, 10, 24, 28, 99, 100, 101, 109, 11, 641, 999, 1000, -1, -10, -2,
		math.MaxInt64, math.MinInt64, 1e18, 1e18 - 1, 9e18}
	for i := 0; i < 200; i++ {
		keys = append(keys, i*7, -i*13)
	}
	for _, a := range keys {
		for _, b := range keys {
			want := strconv.Itoa(a) < strconv.Itoa(b)
			if got := keyLess(a, b); got != want {
				t.Fatalf("keyLess(%d, %d) = %v, want %v", a, b, got, want)
			}
		}
	}
}

// TestAppendFloatMatchesEncodingJSON: appendFloat writes every finite
// float64 as encoding/json does, at the exponent cutoffs and on random
// bit patterns.
func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	fs := []float64{0, math.Copysign(0, -1), 5e-324, 1e-7, math.Nextafter(1e-6, 0), 1e-6, 0.1,
		1e20, math.Nextafter(1e21, 0), 1e21, math.MaxFloat64, -1e-7, -1e21, 123456789, 8.3e16}
	rng := rand.New(rand.NewSource(1))
	for len(fs) < 20000 {
		if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			fs = append(fs, f)
		}
	}
	for _, f := range fs {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendFloat(nil, f); string(got) != string(want) {
			t.Fatalf("%v: appendFloat %s, encoding/json %s", f, got, want)
		}
	}
}

// TestAppendStringMatchesEncodingJSON: appendString quotes as
// encoding/json does — every single byte, and the runes it escapes.
func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	ss := []string{"", "VMM", `<a href="x">&amp;\`, "\u2028 \u2029", "Überprüfung 漢字", "\xff\xfe", "tab\there\x7f"}
	for b := 0; b < 256; b++ {
		ss = append(ss, string([]byte{byte(b)}))
	}
	for _, s := range ss {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendString(nil, s); string(got) != string(want) {
			t.Fatalf("%q: appendString %s, encoding/json %s", s, got, want)
		}
	}
}
