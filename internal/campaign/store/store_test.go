package store

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"wdmlat/internal/core"
	"wdmlat/internal/metrics"
	"wdmlat/internal/ospersona"
	"wdmlat/internal/workload"
)

func testResult(t *testing.T) (*core.Result, core.RunConfig) {
	t.Helper()
	cfg := core.RunConfig{OS: ospersona.Win98, Workload: workload.Business, Duration: time.Second, Seed: 31}
	return core.Run(cfg), cfg
}

// TestStoreRoundTrip: Save then Load reproduces the result exactly.
func TestStoreRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res, cfg := testResult(t)
	fp := Fingerprint(7, "win98/business/default/0", cfg)

	if err := s.Save(fp, res); err != nil {
		t.Fatal(err)
	}
	got, err := s.Load(fp)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, got) {
		t.Fatal("stored result differs from original after round-trip")
	}
}

// TestStoreMiss: an absent fingerprint is (nil, nil), not an error.
func TestStoreMiss(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Load(strings.Repeat("ab", 32))
	if err != nil || got != nil {
		t.Fatalf("miss returned (%v, %v), want (nil, nil)", got, err)
	}
}

// TestStoreCorruptEntry: a truncated checkpoint is an error (the runner
// re-runs the cell), never a silently wrong result.
func TestStoreCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	fp := strings.Repeat("cd", 32)
	if err := os.WriteFile(filepath.Join(dir, fp+".json"), []byte(`{"Version":1,"Conf`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load(fp); err == nil {
		t.Fatal("load of corrupt checkpoint succeeded, want error")
	}
}

// TestStoreSaveAtomic: after Save and SaveBytes, the directory holds
// exactly the final files — no temp leftovers a crashed writer could
// confuse a reader with — and SaveBytes stores its document byte for byte.
func TestStoreSaveAtomic(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	res, cfg := testResult(t)
	fp := Fingerprint(7, "k", cfg)
	if err := s.Save(fp, res); err != nil {
		t.Fatal(err)
	}
	doc, err := core.AppendResult(nil, res)
	if err != nil {
		t.Fatal(err)
	}
	fpBytes := Fingerprint(7, "k2", cfg)
	if err := s.SaveBytes(fpBytes, doc); err != nil {
		t.Fatal(err)
	}
	want := []string{fp + ".json", fpBytes + ".json"}
	slices.Sort(want) // os.ReadDir's order
	if got := storeDir(t, dir); !slices.Equal(got, want) {
		t.Fatalf("store dir holds %v, want exactly %v", got, want)
	}
	for _, f := range []string{fp, fpBytes} {
		if got, err := os.ReadFile(filepath.Join(dir, f+".json")); err != nil || !bytes.Equal(got, doc) {
			t.Fatalf("%s.json = %d bytes (%v), want the %d-byte document", f, len(got), err, len(doc))
		}
	}
}

// TestStoreSaveUnencodableLeavesDirUnchanged: a result Save cannot encode
// (a NaN) is an error before anything touches the store directory: no
// temp file, no entry, no write counted.
func TestStoreSaveUnencodableLeavesDirUnchanged(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	s.Instrument(reg)
	res, cfg := testResult(t)
	if err := s.Save(Fingerprint(7, "k", cfg), res); err != nil {
		t.Fatal(err)
	}
	before := storeDir(t, dir)
	res.Config.StormPPS = math.NaN()
	fp := Fingerprint(7, "nan", cfg)
	if err := s.Save(fp, res); err == nil {
		t.Fatal("Save of a NaN result succeeded, want an error")
	}
	if after := storeDir(t, dir); !slices.Equal(after, before) {
		t.Fatalf("store dir went from %v to %v on a failed Save", before, after)
	}
	if got := reg.Counter(MetricWrites).Value(); got != 1 {
		t.Fatalf("%s = %d, want 1 (the failed Save counts nothing)", MetricWrites, got)
	}
}

// storeDir lists the names in dir.
func storeDir(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names
}

// TestFingerprintSensitivity: the fingerprint must change with every input
// it claims to cover — base seed, key, and any config field — and must be
// stable across calls.
func TestFingerprintSensitivity(t *testing.T) {
	cfg := core.RunConfig{OS: ospersona.NT4, Workload: workload.Games, Duration: time.Minute, Seed: 1}
	base := Fingerprint(1, "k", cfg)
	if base != Fingerprint(1, "k", cfg) {
		t.Fatal("fingerprint not stable")
	}
	altCfg := cfg
	altCfg.VirusScanner = true
	altDur := cfg
	altDur.Duration = 2 * time.Minute
	for name, fp := range map[string]string{
		"base seed": Fingerprint(2, "k", cfg),
		"key":       Fingerprint(1, "k2", cfg),
		"config":    Fingerprint(1, "k", altCfg),
		"duration":  Fingerprint(1, "k", altDur),
	} {
		if fp == base {
			t.Errorf("fingerprint insensitive to %s", name)
		}
	}
}

// TestOpenSweepsOrphanedTemps: a Save interrupted between CreateTemp and
// Rename (killed process, kernel panic) leaves `.<fp>.tmp-*` droppings
// that nothing would ever remove. Open must sweep them — and only them:
// real checkpoints and unrelated files survive.
func TestOpenSweepsOrphanedTemps(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	res, cfg := testResult(t)
	fp := Fingerprint(7, "win98/business/default/0", cfg)
	if err := s.Save(fp, res); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(dir, "."+fp+".tmp-1234567")
	if err := os.WriteFile(orphan, []byte(`{"Version":1,"Conf`), 0o644); err != nil {
		t.Fatal(err)
	}
	bystander := filepath.Join(dir, "latserved.journal")
	if err := os.WriteFile(bystander, []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphaned temp survived Open: stat err = %v", err)
	}
	if got, err := s.Load(fp); err != nil || got == nil {
		t.Fatalf("checkpoint lost to the sweep: (%v, %v)", got, err)
	}
	if _, err := os.Stat(bystander); err != nil {
		t.Fatalf("unrelated file lost to the sweep: %v", err)
	}
}

// TestLoadBytes: LoadBytes hands back the stored document, equal byte for
// byte to re-encoding what Load decodes, so on real cells it is the
// stream's bytes without the re-encode. A document stored without its
// trailing newline gets exactly one back; a truncated or non-canonical
// one is an error, like Load's; and the counters are Load's.
func TestLoadBytes(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	s.Instrument(reg)
	var doc []byte
	var fp string
	for i, cfg := range []core.RunConfig{
		{OS: ospersona.Win98, Workload: workload.Business, Duration: time.Second, Seed: 31},
		{OS: ospersona.NT4, Workload: workload.Games, Duration: time.Second, Seed: 32, CauseAnalysis: true},
		{OS: ospersona.Win98, Idle: true, Duration: 250 * time.Millisecond, Seed: 33},
	} {
		fp = Fingerprint(7, "cell/"+strconv.Itoa(i), cfg)
		if err := s.Save(fp, core.Run(cfg)); err != nil {
			t.Fatal(err)
		}
		res, err := s.Load(fp)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := core.EncodeResult(&want, res); err != nil {
			t.Fatal(err)
		}
		if doc, err = s.LoadBytes(fp); err != nil || !bytes.Equal(doc, want.Bytes()) {
			t.Fatalf("cell %d: LoadBytes = %d bytes (%v), want EncodeResult(Load)'s %d", i, len(doc), err, want.Len())
		}
	}
	if got, want := reg.Counter(MetricReads).Value(), uint64(6); got != want {
		t.Errorf("%s = %d, want %d (three Loads and three LoadBytes)", MetricReads, got, want)
	}

	path := filepath.Join(dir, fp+".json")
	if err := os.WriteFile(path, bytes.TrimSuffix(doc, []byte("\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := s.LoadBytes(fp); err != nil || !bytes.Equal(got, doc) {
		t.Fatalf("document stored without its newline: LoadBytes = %d bytes (%v), want %d", len(got), err, len(doc))
	}

	for name, bad := range map[string][]byte{
		"truncated":     doc[:len(doc)/2],
		"two newlines":  append(bytes.Clone(doc), '\n'),
		"leading space": append([]byte(" "), doc...),
		"inner space":   bytes.Replace(doc, []byte(`{"Version":2,`), []byte(`{ "Version":2,`), 1),
	} {
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if got, err := s.LoadBytes(fp); err == nil || got != nil {
			t.Errorf("%s: LoadBytes = (%d bytes, %v), want an error", name, len(got), err)
		}
	}

	if got, err := s.LoadBytes(strings.Repeat("ef", 32)); got != nil || err != nil {
		t.Fatalf("miss: LoadBytes = (%q, %v), want (nil, nil)", got, err)
	}
	if got := reg.Counter(MetricFingerprintMiss).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", MetricFingerprintMiss, got)
	}
	if got, want := reg.Counter(MetricReads).Value(), uint64(7); got != want {
		t.Errorf("%s = %d after the errors and the miss, want %d", MetricReads, got, want)
	}
}
