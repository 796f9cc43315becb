package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"
	"unsafe"

	"wdmlat/internal/canon"
	"wdmlat/internal/causetool"
	"wdmlat/internal/cpu"
	"wdmlat/internal/hw"
	"wdmlat/internal/kernel"
	"wdmlat/internal/ospersona"
	"wdmlat/internal/sim"
	"wdmlat/internal/stats"
	"wdmlat/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/result.golden from the current encoder")

func roundTrip(t *testing.T, r *Result) *Result {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeResult(&buf, r); err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeResult(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return got
}

func encode(t testing.TB, r *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeResult(&buf, r); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

// TestResultCodecRoundTrip: decode(encode(r)) is deep-equal to r for both
// OS personalities — including the NT result's nil legacy-hook histograms
// and the Win98 cause-tool episode captures — so a checkpointed cell
// replays into the same artifacts an uninterrupted run writes.
func TestResultCodecRoundTrip(t *testing.T) {
	cfgs := []RunConfig{
		{OS: ospersona.NT4, Workload: workload.Business, Duration: 2 * time.Second, Seed: 11},
		{OS: ospersona.Win98, Workload: workload.Games, Duration: 2 * time.Second, Seed: 12,
			SoundScheme: true, CauseAnalysis: true, CauseThreshold: 4 * time.Millisecond},
		{OS: ospersona.NT4, Idle: true, Duration: time.Second, Seed: 13,
			StormPPS: 32768, NICModeration: hw.ModerateITR, FramePacing: true},
	}
	for _, cfg := range cfgs {
		r := Run(cfg)
		got := roundTrip(t, r)
		if !reflect.DeepEqual(r, got) {
			t.Fatalf("%v/%v: round-trip changed result", cfg.OS, cfg.Workload)
		}
	}
}

// TestResultCodecVersionGuard: a stored result from a different codec
// version must refuse to decode — stale checkpoints re-run, never replay.
func TestResultCodecVersionGuard(t *testing.T) {
	r := Run(RunConfig{OS: ospersona.NT4, Workload: workload.Web, Duration: time.Second, Seed: 5})
	var buf bytes.Buffer
	if err := EncodeResult(&buf, r); err != nil {
		t.Fatal(err)
	}
	data := bytes.Replace(buf.Bytes(),
		[]byte(`"Version":2`), []byte(`"Version":999`), 1)
	if !bytes.Contains(data, []byte(`"Version":999`)) {
		t.Fatal("test setup: version tag not found in encoding")
	}
	if _, err := DecodeResult(bytes.NewReader(data)); err == nil {
		t.Fatal("decode of mismatched codec version succeeded, want error")
	}
}

// TestResultCloneIndependent: merging into a clone must leave the original
// untouched (the collect-twice corruption fixed in the campaign runner).
func TestResultCloneIndependent(t *testing.T) {
	a := Run(RunConfig{OS: ospersona.Win98, Workload: workload.Business, Duration: 2 * time.Second, Seed: 21})
	b := Run(RunConfig{OS: ospersona.Win98, Workload: workload.Business, Duration: 2 * time.Second, Seed: 22})

	var before bytes.Buffer
	if err := EncodeResult(&before, a); err != nil {
		t.Fatal(err)
	}
	cl := a.Clone()
	if !reflect.DeepEqual(a, cl) {
		t.Fatal("clone not equal to original")
	}
	cl.Merge(b)
	var after bytes.Buffer
	if err := EncodeResult(&after, a); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("merging into a clone mutated the original result")
	}
	if cl.Samples != a.Samples+b.Samples {
		t.Fatalf("clone did not accumulate: %d samples, want %d", cl.Samples, a.Samples+b.Samples)
	}
}

// resultWire is the struct encoding/json once encoded results through:
// Result's fields in order after a version tag, with NicLat, Storm and
// Pacing omitempty. It is the oracle for EncodeResult's bytes. Histograms
// render through stats.WalkHistogram, which the stats package's own
// differential test holds to encoding/json's bytes.
type resultWire struct {
	Version  int
	Config   RunConfig
	OSName   string
	Class    workload.Class
	Observed sim.Cycles
	Freq     sim.Freq
	Samples  uint64

	DpcInt       *histJSON
	DpcIntOracle *histJSON
	IntLat       *histJSON
	DpcLat       *histJSON
	Thread       map[int]*histJSON
	HwToThread   map[int]*histJSON

	Counters       kernel.Counters
	AudioUnderruns uint64
	AudioPeriods   uint64

	Episodes []causetool.Episode

	NicLat *histJSON   `json:",omitempty"`
	Storm  *StormStats `json:",omitempty"`
	Pacing *pacingWire `json:",omitempty"`
}

// pacingWire is ospersona.PacingStats with oracle histograms.
type pacingWire struct {
	VBlanks, Releases, Completions, Misses, Skips uint64
	MaxLateness                                   sim.Cycles
	FrameLat, Jitter                              *histJSON
}

type histJSON struct{ h *stats.Histogram }

func (o *histJSON) MarshalJSON() ([]byte, error) { return canon.Append(nil, o.h, stats.WalkHistogram) }

func oracleHist(h *stats.Histogram) *histJSON {
	if h == nil {
		return nil
	}
	return &histJSON{h}
}

func oracleHists(m map[int]*stats.Histogram) map[int]*histJSON {
	if m == nil {
		return nil
	}
	out := make(map[int]*histJSON, len(m))
	for k, h := range m {
		out[k] = oracleHist(h)
	}
	return out
}

// oracleEncode is EncodeResult as it was: encoding/json on resultWire.
func oracleEncode(t *testing.T, r *Result) []byte {
	t.Helper()
	w := resultWire{
		Version: ResultCodecVersion, Config: r.Config, OSName: r.OSName, Class: r.Class,
		Observed: r.Observed, Freq: r.Freq, Samples: r.Samples,
		DpcInt: oracleHist(r.DpcInt), DpcIntOracle: oracleHist(r.DpcIntOracle),
		IntLat: oracleHist(r.IntLat), DpcLat: oracleHist(r.DpcLat),
		Thread: oracleHists(r.Thread), HwToThread: oracleHists(r.HwToThread),
		Counters: r.Counters, AudioUnderruns: r.AudioUnderruns, AudioPeriods: r.AudioPeriods,
		Episodes: r.Episodes, NicLat: oracleHist(r.NicLat), Storm: r.Storm,
	}
	if p := r.Pacing; p != nil {
		w.Pacing = &pacingWire{p.VBlanks, p.Releases, p.Completions, p.Misses, p.Skips,
			p.MaxLateness, oracleHist(p.FrameLat), oracleHist(p.Jitter)}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(&w); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// codecInput is one document of the differential test.
type codecInput struct {
	name      string
	r         *Result
	bytesOnly bool // encoding/json rewrites invalid UTF-8, so no round trip
}

var (
	codecInputsOnce sync.Once
	codecInputsAll  []codecInput
)

// codecInputs are real cells of each shape the codec meets — stress cells
// of both personas, a cause-tool cell with call stacks, a storm cell with
// ITR and pacing, and the idle quarter-second fleet cell — plus Results
// filled by reflection so that every wire field is set, in variants that
// rotate edge values through the fields, leave collections empty or nil,
// and carry invalid UTF-8.
func codecInputs(tb testing.TB) []codecInput {
	codecInputsOnce.Do(func() {
		for _, in := range []struct {
			name string
			cfg  RunConfig
		}{
			{"nt4-business", RunConfig{OS: ospersona.NT4, Workload: workload.Business, Duration: 2 * time.Second, Seed: 31}},
			{"win98-games", RunConfig{OS: ospersona.Win98, Workload: workload.Games, Duration: 2 * time.Second, Seed: 32}},
			{"win98-causetool", RunConfig{OS: ospersona.Win98, Workload: workload.Games, Duration: 2 * time.Second, Seed: 12,
				SoundScheme: true, CauseAnalysis: true, CauseThreshold: 4 * time.Millisecond, CauseWalkStack: true}},
			{"nt4-storm", RunConfig{OS: ospersona.NT4, Idle: true, Duration: time.Second, Seed: 13,
				StormPPS: 32768, NICModeration: hw.ModerateITR, FramePacing: true}},
			{"win98-idle", RunConfig{OS: ospersona.Win98, Idle: true, Duration: 250 * time.Millisecond, Seed: 1}},
		} {
			codecInputsAll = append(codecInputsAll, codecInput{name: in.name, r: Run(in.cfg)})
		}
		for shift := 0; shift < len(fillFloats); shift++ {
			codecInputsAll = append(codecInputsAll, codecInput{
				name: fmt.Sprintf("filled/%d", shift), r: fillResult(tb, filler{shift: shift})})
		}
		codecInputsAll = append(codecInputsAll,
			codecInput{name: "filled/empty", r: fillResult(tb, filler{empty: true})},
			codecInput{name: "filled/nil", r: fillResult(tb, filler{nils: true})})
		codecInputsAll = append(codecInputsAll, codecInput{name: "golden", r: goldenResult()})
		bad := fillResult(tb, filler{})
		bad.OSName = "Windows \xff98\xfe"
		codecInputsAll = append(codecInputsAll, codecInput{name: "filled/invalid-utf8", r: bad, bytesOnly: true})
	})
	stacks := 0
	for _, e := range codecInputsAll[2].r.Episodes {
		for _, s := range e.Samples {
			stacks += len(s.Stack)
		}
	}
	if stacks == 0 || codecInputsAll[3].r.Storm == nil || codecInputsAll[3].r.Pacing == nil {
		tb.Fatal("test setup: the cause-tool cell needs captured stacks, the storm cell storm and pacing stats")
	}
	return codecInputsAll
}

// Edge values the filler rotates through the fields of each kind.
var (
	fillInts    = []int64{-3, math.MaxInt64, 7, math.MinInt64, 1 << 40, 42}
	fillUints   = []uint64{1, math.MaxUint64, 10, 1<<40 + 3}
	fillFloats  = []float64{0.1, 5e-324, 1e-7, 1e-6, 1e20, 1e21, math.MaxFloat64, -2.5e-8, 0, math.Copysign(0, -1)}
	fillStrings = []string{`<a href="x">&amp;"q"\`, "line\u2028sep\u2029para", "Überprüfung – 漢字", "VMM"}
	fillKeys    = []int{3, 10, 24, 28, 100}
)

// filler sets every field of a wire type by reflection. In its default
// form no field is left zero (shift 0 keeps the zero floats away from
// every float field); shift rotates each kind's edge values across the
// fields, empty makes slices and maps empty, nils makes pointers, slices
// and maps nil. A field of a kind it does not know fails the test, so a
// new field cannot slip past the differential test unfilled.
type filler struct {
	shift       int
	empty, nils bool
	n, floats   int // fields and float fields filled so far
}

func fillResult(tb testing.TB, f filler) *Result {
	r := new(Result)
	f.fill(tb, reflect.ValueOf(r).Elem(), "Result")
	return r
}

func (f *filler) fill(tb testing.TB, v reflect.Value, path string) {
	tb.Helper()
	k := f.shift + f.n
	f.n++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if !v.Field(i).CanSet() {
				tb.Fatalf("fill: %s.%s is unexported", path, v.Type().Field(i).Name)
			}
			f.fill(tb, v.Field(i), path+"."+v.Type().Field(i).Name)
		}
	case reflect.Int, reflect.Int64:
		v.SetInt(fillInts[k%len(fillInts)])
	case reflect.Uint64:
		v.SetUint(fillUints[k%len(fillUints)])
	case reflect.Float64:
		v.SetFloat(fillFloats[(f.shift+f.floats)%len(fillFloats)])
		f.floats++
	case reflect.String:
		v.SetString(fillStrings[k%len(fillStrings)])
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Pointer:
		switch {
		case f.nils:
		case v.Type() == reflect.TypeOf((*stats.Histogram)(nil)):
			v.Set(reflect.ValueOf(f.histogram(k)))
		default:
			v.Set(reflect.New(v.Type().Elem()))
			f.fill(tb, v.Elem(), path)
		}
	case reflect.Slice:
		switch {
		case f.nils:
		case f.empty:
			v.Set(reflect.MakeSlice(v.Type(), 0, 0))
		default:
			v.Set(reflect.MakeSlice(v.Type(), 2, 2))
			for i := 0; i < 2; i++ {
				f.fill(tb, v.Index(i), fmt.Sprintf("%s[%d]", path, i))
			}
		}
	case reflect.Map:
		if v.Type() != reflect.TypeOf(map[int]*stats.Histogram(nil)) {
			tb.Fatalf("fill: %s: unhandled map type %v", path, v.Type())
		}
		switch {
		case f.nils:
		case f.empty:
			v.Set(reflect.MakeMap(v.Type()))
		default:
			m := make(map[int]*stats.Histogram)
			for i, key := range fillKeys {
				m[key] = f.histogram(k + i)
			}
			if f.shift%2 == 1 {
				m[fillKeys[k%len(fillKeys)]] = nil
			}
			v.Set(reflect.ValueOf(m))
		}
	default:
		tb.Fatalf("fill: %s: unhandled kind %v", path, v.Kind())
	}
}

// histogram returns a histogram whose buckets, sums and extrema vary with
// k; every fifth is empty, with its min/max sentinels.
func (f *filler) histogram(k int) *stats.Histogram {
	h := stats.NewHistogram(sim.DefaultFreq)
	if k%5 == 4 {
		return h
	}
	for i := 0; i < 3+k%7; i++ {
		h.Add(sim.Cycles(1+k) << (3 * i))
	}
	h.Add(1 << (30 + k%11)) // a sum of squares past 1e21
	return h
}

// TestResultCodecMatchesEncodingJSON: EncodeResult writes exactly the
// bytes encoding/json wrote for resultWire, and DecodeResult parses them
// back to a deep-equal Result.
func TestResultCodecMatchesEncodingJSON(t *testing.T) {
	for _, in := range codecInputs(t) {
		got, want := encode(t, in.r), oracleEncode(t, in.r)
		if !bytes.Equal(got, want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			lo := max(0, i-60)
			t.Fatalf("%s: bytes differ at offset %d\ngot  …%s\nwant …%s", in.name, i,
				got[lo:min(len(got), i+60)], want[lo:min(len(want), i+60)])
		}
		if in.bytesOnly {
			continue
		}
		back, err := DecodeResult(bytes.NewReader(got))
		if err != nil {
			t.Fatalf("%s: decode: %v", in.name, err)
		}
		if !reflect.DeepEqual(back, in.r) {
			t.Fatalf("%s: round-trip changed the result", in.name)
		}
	}
}

// goldenResult is a hand-built Result, with no simulation behind it, that
// touches every wire type: both histogram maps, a cause-tool episode with
// a call stack, storm and pacing stats.
func goldenResult() *Result {
	hist := func(vs ...sim.Cycles) *stats.Histogram {
		h := stats.NewHistogram(sim.DefaultFreq)
		for _, v := range vs {
			h.Add(v)
		}
		return h
	}
	frame := cpu.Frame{Module: "VMM", Function: "_mmCalcFrameBadness"}
	return &Result{
		Config: RunConfig{OS: ospersona.Win98, Workload: workload.Games, Duration: time.Minute,
			Warmup: 200 * time.Millisecond, Seed: 3, SoundScheme: true, DelayTicks: 3,
			CauseAnalysis: true, CauseThreshold: 5 * time.Millisecond, CauseWalkStack: true,
			HighPriority: 28, MediumPriority: 24, StormPPS: 32768, StormBytes: 1460,
			NICModeration: hw.ModerateITR, NICGapUS: 250, FramePacing: true,
			FramePeriodMS: 16.7, FrameComputeFrac: 0.4, FramePriority: 24},
		OSName:   "Windows 98",
		Class:    workload.Games,
		Observed: 18_000_000_000,
		Freq:     sim.DefaultFreq,
		Samples:  59_940,
		DpcInt:   hist(12_000, 15_000, 300_000),
		IntLat:   hist(900, 1_100),
		DpcLat:   hist(),
		Thread: map[int]*stats.Histogram{
			24: hist(30_000, 2_400_000), 28: hist(20_000, 1<<41)},
		HwToThread: map[int]*stats.Histogram{24: hist(45_000), 28: nil},
		Counters: kernel.Counters{ISRCycles: 1 << 30, DPCCycles: 1 << 29, Interrupts: 60_000,
			DPCs: 61_000, Switches: 120_000, Episodes: 7, MaxLockEpisode: 2_100_000},
		AudioUnderruns: 2,
		AudioPeriods:   6_000,
		Episodes: []causetool.Episode{{Number: 1, At: 9_000_000_000, Latency: 1_800_000,
			Samples: []causetool.Sample{
				{TSC: 8_999_700_000, Frame: frame, Stack: []cpu.Frame{frame, {Module: "IOS"}}},
				{TSC: 8_999_900_000, Frame: cpu.Frame{}}}}},
		NicLat: hist(3_000, 75_000),
		Storm: &StormStats{OfferedPPS: 32768, Offered: 1_966_080, Delivered: 1_966_000, Dropped: 80,
			Asserts: 240_000, Backlog: []workload.BacklogSample{{T: 300_000_000, Pending: 12, Delivered: 32_000}}},
		Pacing: &ospersona.PacingStats{VBlanks: 3_600, Releases: 3_598, Completions: 3_590,
			Misses: 9, Skips: 1, MaxLateness: 7_000_000, FrameLat: hist(4_000_000), Jitter: hist(0, 60_000)},
	}
}

// TestResultCodecGolden pins the canonical bytes to the repository, not
// to the toolchain's encoding/json: the hand-built result encodes to
// testdata/result.golden byte for byte, and decodes back to itself. Run
// with -update to rewrite the file after a deliberate format change (which
// also bumps ResultCodecVersion).
func TestResultCodecGolden(t *testing.T) {
	r := goldenResult()
	got := encode(t, r)
	path := filepath.Join("testdata", "result.golden")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encoding differs from %s:\ngot  %s\nwant %s", path, got, want)
	}
	back, err := DecodeResult(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, r) {
		t.Fatal("golden document decodes to a different result")
	}
}

// TestResultEncodeRejectsNonFinite: NaN and ±Inf have no JSON form; the
// encoder fails and writes nothing, as encoding/json did.
func TestResultEncodeRejectsNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		// No sample makes a sum non-finite, so force the unexported field.
		inHist := goldenResult()
		sum := reflect.ValueOf(inHist.Thread[24]).Elem().FieldByName("sum")
		reflect.NewAt(sum.Type(), unsafe.Pointer(sum.UnsafeAddr())).Elem().SetFloat(v)
		inConfig := goldenResult()
		inConfig.Config.StormPPS = v
		for name, r := range map[string]*Result{"histogram sum": inHist, "RunConfig.StormPPS": inConfig} {
			var buf bytes.Buffer
			if err := EncodeResult(&buf, r); err == nil || buf.Len() != 0 {
				t.Errorf("%v in %s: err %v, %d bytes written; want an error and nothing written", v, name, err, buf.Len())
			}
		}
	}
}

// TestAppendResultAppends: AppendResult onto a non-empty prefix keeps the
// prefix and adds exactly EncodeResult's bytes, onto a reused buffer it
// writes each document whole over the last, and a result it cannot encode
// leaves dst as it was.
func TestAppendResultAppends(t *testing.T) {
	prefix := []byte("{\"an\":\"earlier document\"}\n")
	var scratch []byte
	for _, in := range codecInputs(t) {
		want := encode(t, in.r)
		got, err := AppendResult(bytes.Clone(prefix), in.r)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Errorf("%s: AppendResult onto a %d-byte prefix = %d bytes, want the prefix then EncodeResult's %d",
				in.name, len(prefix), len(got), len(want))
		}
		if scratch, err = AppendResult(scratch[:0], in.r); err != nil || !bytes.Equal(scratch, want) {
			t.Errorf("%s: AppendResult into a reused buffer = %d bytes (%v), want EncodeResult's %d",
				in.name, len(scratch), err, len(want))
		}
	}
	bad := goldenResult()
	bad.Config.StormPPS = math.NaN()
	got, err := AppendResult(prefix, bad)
	if err == nil || !bytes.Equal(got, prefix) || cap(got) != cap(prefix) {
		t.Fatalf("NaN result: AppendResult = %q (cap %d, %v), want the prefix unchanged and an error", got, cap(got), err)
	}
}

// TestResultDecodeRejectsNonCanonical: the decoder accepts only what the
// encoder writes. A document encoding/json would accept but the encoder
// never writes fails, so a hand-edited checkpoint is a miss.
func TestResultDecodeRejectsNonCanonical(t *testing.T) {
	doc := bytes.TrimSuffix(encode(t, goldenResult()), []byte("\n"))
	for _, ok := range [][]byte{doc, append(bytes.Clone(doc), '\n')} {
		if _, err := DecodeResult(bytes.NewReader(ok)); err != nil {
			t.Fatalf("canonical document refused: %v", err)
		}
	}
	edit := func(old, new string) []byte {
		if !bytes.Contains(doc, []byte(old)) {
			t.Fatalf("test setup: %q not in document", old)
		}
		return bytes.Replace(doc, []byte(old), []byte(new), 1)
	}
	for name, bad := range map[string][]byte{
		"leading space":    append([]byte(" "), doc...),
		"two newlines":     append(bytes.Clone(doc), '\n', '\n'),
		"trailing data":    append(bytes.Clone(doc), "{}"...),
		"inner whitespace": edit(`"OSName":`, `"OSName": `),
		"key case":         edit(`"OSName":`, `"osname":`),
		"unknown field":    edit(`"OSName":`, `"Extra":1,"OSName":`),
		"missing field":    edit(`"AudioUnderruns":2,`, ``),
		"null omitempty":   edit(`"NicLat":{`, `"NicLat":null,"X":{`),
		"map key order":    edit(`"Thread":{"24"`, `"Thread":{"024"`),
		"escaped ascii":    edit(`"VMM"`, `"\u0056MM"`),
		"float spelling":   edit(`"FramePeriodMS":16.7`, `"FramePeriodMS":1.67e1`),
		"truncated":        doc[:len(doc)/2],
	} {
		if _, err := DecodeResult(bytes.NewReader(bad)); err == nil {
			t.Errorf("%s: decode succeeded, want error", name)
		}
	}
}

// FuzzDecodeResult: the decoder never panics, any input it accepts
// re-encodes to exactly itself (without the optional trailing newline),
// and ParseResult over the same bytes makes the same decision and the same
// result.
func FuzzDecodeResult(f *testing.F) {
	for _, in := range codecInputs(f) {
		data := encode(f, in.r)
		flipped := bytes.Clone(data)
		flipped[len(flipped)/2] ^= 0x01
		f.Add(data)
		f.Add(data[:len(data)/2])
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeResult(bytes.NewReader(data))
		parsed, perr := ParseResult(data)
		if (err == nil) != (perr == nil) {
			t.Fatalf("DecodeResult error %v, ParseResult error %v: want the same decision", err, perr)
		}
		if err != nil {
			return
		}
		again := encode(t, r)
		if trim := []byte("\n"); !bytes.Equal(bytes.TrimSuffix(again, trim), bytes.TrimSuffix(data, trim)) {
			t.Fatalf("accepted non-canonical input\n in  %q\n out %q", data, again)
		}
		if parsedAgain := encode(t, parsed); !bytes.Equal(parsedAgain, again) {
			t.Fatalf("ParseResult re-encodes to %q, DecodeResult to %q", parsedAgain, again)
		}
	})
}

// codecBenchCells are the cells the service workloads store most: the
// fleet-shard cell (Win98 idle, 250 ms) and the service-overlap cold cell
// (Win98 business, 30 s).
var codecBenchCells = []struct {
	name string
	cfg  RunConfig
}{
	{"fleet-idle-250ms", RunConfig{OS: ospersona.Win98, Idle: true, Duration: 250 * time.Millisecond, Seed: 1}},
	{"service-business-30s", RunConfig{OS: ospersona.Win98, Workload: workload.Business, Duration: 30 * time.Second, Seed: 1}},
}

func BenchmarkResultEncode(b *testing.B) {
	for _, cell := range codecBenchCells {
		r := Run(cell.cfg)
		b.Run(cell.name, func(b *testing.B) {
			var buf bytes.Buffer
			b.SetBytes(int64(len(encode(b, r))))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := EncodeResult(&buf, r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkResultDecode(b *testing.B) {
	for _, cell := range codecBenchCells {
		data := encode(b, Run(cell.cfg))
		b.Run(cell.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := DecodeResult(bytes.NewReader(data)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
