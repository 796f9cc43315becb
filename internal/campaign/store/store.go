// Package store is the campaign checkpoint store: one encoded core.Result
// per finished cell, on disk, keyed by a content fingerprint of everything
// the cell's result depends on. A killed multi-hour campaign resumes by
// re-submitting the same cells against the same store directory — cells
// whose fingerprints are present replay from disk, the rest re-run — and
// because cell results are deterministic functions of (base seed, key,
// config) and the codec round-trips exactly, a resumed campaign's
// artifacts are byte-identical to an uninterrupted run's.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"wdmlat/internal/core"
	"wdmlat/internal/metrics"
)

// Metric names the store publishes once instrumented (see Instrument).
const (
	MetricReads           = "store_reads"              // checkpoints successfully loaded
	MetricWrites          = "store_writes"             // checkpoints successfully persisted
	MetricFingerprintMiss = "store_fingerprint_misses" // lookups with no stored entry
)

// Store is an on-disk per-cell result store. Methods are safe for
// concurrent use by campaign workers: each cell writes its own file, and
// writes are atomic (temp file + rename), so a crash mid-write never
// leaves a truncated checkpoint behind under the final name.
type Store struct {
	dir string

	// Telemetry handles (nil-safe no-ops until Instrument is called).
	// Strictly out-of-band: counters never influence what is read or
	// written, only report it.
	reads, writes, misses *metrics.Counter
}

// Open creates (if needed) and opens a checkpoint directory, sweeping any
// temp files (`.<fp>.tmp-*`) a crashed Save left behind. The sweep is safe
// because a temp file is only ever visible between CreateTemp and Rename
// inside one Save call, and Open precedes sharing the store with writers:
// a temp that exists at Open time belongs to a process that died mid-write
// and would otherwise leak forever.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasPrefix(name, ".") && strings.Contains(name, ".tmp-") {
			// Best effort: a sweep that loses a race with a concurrent
			// remover is fine, and a live store still works around an
			// unremovable orphan (Save uses fresh temp names).
			_ = os.Remove(filepath.Join(dir, name))
		}
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Instrument attaches the store's telemetry counters to reg. Call before
// the store is shared with campaign workers; a nil registry leaves the
// counters as no-ops.
func (s *Store) Instrument(reg *metrics.Registry) {
	s.reads = reg.Counter(MetricReads)
	s.writes = reg.Counter(MetricWrites)
	s.misses = reg.Counter(MetricFingerprintMiss)
}

// Fingerprint identifies one cell's result content: SHA-256 over the
// result codec version (which stands in for "code version" — it is bumped
// whenever the encoding or the simulation's observable output changes),
// the campaign base seed, the cell key, and the canonical JSON encoding of
// the cell's full RunConfig (with the derived per-cell seed filled in).
// Struct JSON is canonical here: fields marshal in declaration order, so
// equal configs hash equal, and any added RunConfig field changes the
// encoding and safely invalidates old checkpoints.
func Fingerprint(baseSeed uint64, key string, cfg core.RunConfig) string {
	cfgJSON, err := json.Marshal(cfg)
	if err != nil {
		// RunConfig is a plain data struct; its marshal cannot fail.
		panic(fmt.Sprintf("store: marshal RunConfig: %v", err))
	}
	h := sha256.New()
	fmt.Fprintf(h, "wdmlat-result-v%d\x00%d\x00%s\x00", core.ResultCodecVersion, baseSeed, key)
	h.Write(cfgJSON)
	return hex.EncodeToString(h.Sum(nil))
}

func (s *Store) path(fp string) string {
	return filepath.Join(s.dir, fp+".json")
}

// Has reports whether fp has a stored entry, without reading or counting
// it: a cheap existence check that says nothing about whether the entry
// decodes.
func (s *Store) Has(fp string) bool {
	_, err := os.Stat(s.path(fp))
	return err == nil
}

// Load returns the stored result for fp, or (nil, nil) when the store has
// no entry. An unreadable or corrupt entry is an error — the caller
// decides whether to re-run the cell (the campaign runner does) or abort.
func (s *Store) Load(fp string) (*core.Result, error) {
	_, res, err := s.load(fp)
	return res, err
}

// LoadBytes returns fp's stored document as core.EncodeResult writes it,
// ending in exactly one newline, or (nil, nil) when the store has no
// entry. The bytes are validated by decoding them, which accepts only the
// canonical encoding, so they equal EncodeResult(Load(fp)) without the
// re-encode. Errors and counters are Load's.
func (s *Store) LoadBytes(fp string) ([]byte, error) {
	data, _, err := s.load(fp)
	return data, err
}

// load reads and decodes fp's entry, returning the document with its
// trailing newline and the result it decodes to.
func (s *Store) load(fp string) ([]byte, *core.Result, error) {
	data, err := os.ReadFile(s.path(fp))
	if errors.Is(err, fs.ErrNotExist) {
		s.misses.Inc()
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	res, err := core.ParseResult(data)
	if err != nil {
		return nil, nil, fmt.Errorf("store: checkpoint %s: %w", fp, err)
	}
	s.reads.Inc()
	if !bytes.HasSuffix(data, []byte("\n")) {
		data = append(data, '\n')
	}
	return data, res, nil
}

// Save atomically persists res under fp: SaveBytes of the document
// core.AppendResult encodes. A result that cannot be encoded (a NaN) is an
// error before anything touches the store directory.
func (s *Store) Save(fp string, res *core.Result) error {
	doc, err := core.AppendResult(nil, res)
	if err != nil {
		return fmt.Errorf("store: checkpoint %s: %w", fp, err)
	}
	return s.SaveBytes(fp, doc)
}

// SaveBytes atomically persists doc under fp. doc is a document as
// core.AppendResult encodes it, ending in its one newline: what LoadBytes
// returns. It is written as given, not checked, so a caller holding the
// encoded bytes (a fleet worker that also delivers them) saves without a
// second encode; a document that does not decode fails its Load, and its
// cell re-runs. The bytes land in a temp file in the store directory that
// is renamed into place only once fully written and synced, so concurrent
// readers and crash recovery only ever see complete checkpoints; the temp
// file is removed only when a step fails.
func (s *Store) SaveBytes(fp string, doc []byte) error {
	tmp, err := os.CreateTemp(s.dir, "."+fp+".tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	_, err = tmp.Write(doc)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), s.path(fp))
	}
	if err != nil {
		// Best effort: the save has failed either way, and a temp file
		// left behind is swept by the next Open.
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	s.writes.Inc()
	return nil
}
