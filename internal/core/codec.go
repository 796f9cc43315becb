package core

// Checkpoint codec for Result. A campaign checkpoint store persists one
// encoded Result per finished cell; on resume the stored bytes must
// reconstruct the cell's result exactly — every histogram bucket, float
// accumulator, kernel counter and cause-tool episode — or the resumed
// campaign's artifacts would drift from an uninterrupted run's. The wire
// form is versioned JSON, byte for byte what encoding/json wrote for the
// struct this file's field lists describe: resultFields and the lists it
// calls name every member once, and internal/canon walks them both to
// write a document and to parse one (the histograms carry their own list
// in internal/stats). The parser accepts only the canonical bytes, so a
// stored document that was padded, reordered or hand-edited fails to
// decode and its cell re-runs; it never replays as a different result. ResultCodecVersion guards against replaying
// results captured by an incompatible encoding *or* an incompatible
// simulation (bump it whenever either changes observable output).

import (
	"bytes"
	"fmt"
	"io"
	"slices"

	"wdmlat/internal/canon"
	"wdmlat/internal/causetool"
	"wdmlat/internal/cpu"
	"wdmlat/internal/kernel"
	"wdmlat/internal/ospersona"
	"wdmlat/internal/stats"
	"wdmlat/internal/workload"
)

// ResultCodecVersion identifies the encoding and the simulation semantics
// a stored Result was produced under. Checkpoint fingerprints include it,
// so bumping the version invalidates every stored cell — the safe
// direction: a stale checkpoint silently re-runs, it never corrupts.
// Version 2: storm/pacing fields (NicLat, Storm, Pacing) and the RunConfig
// storm knobs — pre-storm checkpoints re-run rather than silently losing
// the new fields.
const ResultCodecVersion = 2

// AppendResult appends r's checkpoint encoding to dst: one document and a
// newline. If r holds a NaN or infinite float it returns dst unchanged and
// an error. It first makes room for 8 KB, about one document (4 KB for an
// idle cell, 8.5 KB for a 30 s business cell), so that a fresh buffer is
// not grown by doubling from a few bytes.
func AppendResult(dst []byte, r *Result) ([]byte, error) {
	buf, err := canon.Append(slices.Grow(dst, 8<<10), r, resultFields)
	if err != nil {
		return dst, fmt.Errorf("core: encoding result: %w", err)
	}
	return append(buf, '\n'), nil
}

// EncodeResult writes r's checkpoint encoding to w in one Write: what
// AppendResult appends, or nothing if r cannot be encoded.
func EncodeResult(w io.Writer, r *Result) error {
	buf, err := AppendResult(nil, r)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// ParseResult decodes one checkpoint-encoded Result from data, which must
// be exactly what AppendResult appends, with or without the trailing
// newline. The result shares no memory with data.
func ParseResult(data []byte) (*Result, error) {
	r := new(Result)
	if err := canon.Parse(bytes.TrimSuffix(data, []byte("\n")), r, resultFields); err != nil {
		return nil, fmt.Errorf("core: decoding result: %w", err)
	}
	return r, nil
}

// DecodeResult reads all of rd and parses it with ParseResult.
func DecodeResult(rd io.Reader) (*Result, error) {
	data, err := io.ReadAll(rd)
	if err != nil {
		return nil, fmt.Errorf("core: decoding result: %w", err)
	}
	return ParseResult(data)
}

// resultFields is Result's wire form: its fields in declaration order
// after a version tag, with NicLat, Storm and Pacing omitted when nil.
func resultFields(c *canon.Codec, r *Result) {
	version := ResultCodecVersion
	c.Begin()
	c.Int("Version", &version)
	if version != ResultCodecVersion {
		c.Fail(fmt.Errorf("result codec version %d, want %d", version, ResultCodecVersion))
	}
	c.Field("Config")
	runConfigFields(c, &r.Config)
	c.Str("OSName", &r.OSName)
	c.Int("Class", (*int)(&r.Class))
	c.I64("Observed", (*int64)(&r.Observed))
	c.I64("Freq", (*int64)(&r.Freq))
	c.U64("Samples", &r.Samples)
	canon.Ptr(c, "DpcInt", &r.DpcInt, stats.WalkHistogram)
	canon.Ptr(c, "DpcIntOracle", &r.DpcIntOracle, stats.WalkHistogram)
	canon.Ptr(c, "IntLat", &r.IntLat, stats.WalkHistogram)
	canon.Ptr(c, "DpcLat", &r.DpcLat, stats.WalkHistogram)
	canon.IntMap(c, "Thread", &r.Thread, stats.WalkHistogram)
	canon.IntMap(c, "HwToThread", &r.HwToThread, stats.WalkHistogram)
	c.Field("Counters")
	countersFields(c, &r.Counters)
	c.U64("AudioUnderruns", &r.AudioUnderruns)
	c.U64("AudioPeriods", &r.AudioPeriods)
	canon.Slice(c, "Episodes", &r.Episodes, episodeFields)
	canon.OptPtr(c, "NicLat", &r.NicLat, stats.WalkHistogram)
	canon.OptPtr(c, "Storm", &r.Storm, stormFields)
	canon.OptPtr(c, "Pacing", &r.Pacing, pacingFields)
	c.End()
}

func runConfigFields(c *canon.Codec, cfg *RunConfig) {
	c.Begin()
	c.Int("OS", (*int)(&cfg.OS))
	c.Int("Workload", (*int)(&cfg.Workload))
	c.Bool("Idle", &cfg.Idle)
	c.I64("Duration", (*int64)(&cfg.Duration))
	c.I64("Warmup", (*int64)(&cfg.Warmup))
	c.U64("Seed", &cfg.Seed)
	c.Bool("VirusScanner", &cfg.VirusScanner)
	c.Bool("SoundScheme", &cfg.SoundScheme)
	c.Int("DelayTicks", &cfg.DelayTicks)
	c.Bool("CauseAnalysis", &cfg.CauseAnalysis)
	c.I64("CauseThreshold", (*int64)(&cfg.CauseThreshold))
	c.Int("CauseRingSize", &cfg.CauseRingSize)
	c.Bool("CauseNMI", &cfg.CauseNMI)
	c.Bool("CauseWalkStack", &cfg.CauseWalkStack)
	c.Int("HighPriority", &cfg.HighPriority)
	c.Int("MediumPriority", &cfg.MediumPriority)
	c.Int("WorkerPriority", &cfg.WorkerPriority)
	c.I64("PITPeriod", (*int64)(&cfg.PITPeriod))
	c.Bool("PIODisk", &cfg.PIODisk)
	c.F64("StormPPS", &cfg.StormPPS)
	c.Int("StormBytes", &cfg.StormBytes)
	c.Int("NICModeration", (*int)(&cfg.NICModeration))
	c.F64("NICGapUS", &cfg.NICGapUS)
	c.Bool("FramePacing", &cfg.FramePacing)
	c.F64("FramePeriodMS", &cfg.FramePeriodMS)
	c.F64("FrameComputeFrac", &cfg.FrameComputeFrac)
	c.Int("FramePriority", &cfg.FramePriority)
	c.End()
}

func countersFields(c *canon.Codec, k *kernel.Counters) {
	c.Begin()
	c.I64("ISRCycles", (*int64)(&k.ISRCycles))
	c.I64("DPCCycles", (*int64)(&k.DPCCycles))
	c.I64("EpisodeCycles", (*int64)(&k.EpisodeCycles))
	c.I64("SwitchCycles", (*int64)(&k.SwitchCycles))
	c.I64("ThreadCycles", (*int64)(&k.ThreadCycles))
	c.U64("Interrupts", &k.Interrupts)
	c.U64("DPCs", &k.DPCs)
	c.U64("Switches", &k.Switches)
	c.U64("Episodes", &k.Episodes)
	c.I64("MaxLockEpisode", (*int64)(&k.MaxLockEpisode))
	c.I64("MaxMaskEpisode", (*int64)(&k.MaxMaskEpisode))
	c.U64("NMIs", &k.NMIs)
	c.U64("NMIsDropped", &k.NMIsDropped)
	c.End()
}

func episodeFields(c *canon.Codec, e *causetool.Episode) {
	c.Begin()
	c.Int("Number", &e.Number)
	c.I64("At", (*int64)(&e.At))
	c.I64("Latency", (*int64)(&e.Latency))
	canon.Slice(c, "Samples", &e.Samples, sampleFields)
	c.Bool("Truncated", &e.Truncated)
	c.End()
}

func sampleFields(c *canon.Codec, s *causetool.Sample) {
	c.Begin()
	c.I64("TSC", (*int64)(&s.TSC))
	c.Field("Frame")
	frameFields(c, &s.Frame)
	canon.Slice(c, "Stack", &s.Stack, frameFields)
	c.End()
}

func frameFields(c *canon.Codec, f *cpu.Frame) {
	c.Begin()
	c.Str("Module", &f.Module)
	c.Str("Function", &f.Function)
	c.End()
}

func stormFields(c *canon.Codec, s *StormStats) {
	c.Begin()
	c.F64("OfferedPPS", &s.OfferedPPS)
	c.U64("Offered", &s.Offered)
	c.U64("Delivered", &s.Delivered)
	c.U64("Dropped", &s.Dropped)
	c.U64("Asserts", &s.Asserts)
	canon.Slice(c, "Backlog", &s.Backlog, backlogFields)
	c.End()
}

func backlogFields(c *canon.Codec, b *workload.BacklogSample) {
	c.Begin()
	c.I64("T", (*int64)(&b.T))
	c.Int("Pending", &b.Pending)
	c.U64("Delivered", &b.Delivered)
	c.U64("Dropped", &b.Dropped)
	c.End()
}

func pacingFields(c *canon.Codec, p *ospersona.PacingStats) {
	c.Begin()
	c.U64("VBlanks", &p.VBlanks)
	c.U64("Releases", &p.Releases)
	c.U64("Completions", &p.Completions)
	c.U64("Misses", &p.Misses)
	c.U64("Skips", &p.Skips)
	c.I64("MaxLateness", (*int64)(&p.MaxLateness))
	canon.Ptr(c, "FrameLat", &p.FrameLat, stats.WalkHistogram)
	canon.Ptr(c, "Jitter", &p.Jitter, stats.WalkHistogram)
	c.End()
}
