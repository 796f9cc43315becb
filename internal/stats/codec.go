package stats

// Checkpoint codec for Histogram. A resumed campaign replays stored
// results instead of re-simulating, so the encoding must round-trip the
// histogram *exactly*: the bucket counts drive quantiles and CCDFs, and
// the float accumulators drive reported means. The wire form is the JSON
// encoding/json once wrote for it, now written and parsed by
// internal/canon without reflection: floats in their shortest exact form,
// so decode(encode(h)) is bit-identical, and the counts sparse — a latency
// histogram populates a few dozen of the 642 buckets — as an object keyed
// by bucket index. The parser fills the histogram in place and accepts
// only those exact bytes.

import (
	"fmt"

	"wdmlat/internal/canon"
)

// WalkHistogram walks h's canonical JSON on c, for internal/canon's Append
// and Parse: the fields below, in this order, with counts omitted when
// every bucket is empty. Min and max are stored raw, an empty histogram's
// sentinels included, so a decoded histogram is field-for-field identical.
func WalkHistogram(c *canon.Codec, h *Histogram) {
	c.Begin()
	c.I64("freq", (*int64)(&h.freq))
	c.U64("n", &h.n)
	c.F64("sum", &h.sum)
	c.F64("sumsq", &h.sumsq)
	c.I64("min", (*int64)(&h.min))
	c.I64("max", (*int64)(&h.max))
	c.Sparse("counts", h.counts[:])
	c.End()
	if c.Decoding() && h.freq <= 0 {
		c.Fail(fmt.Errorf("stats: decoded histogram has non-positive frequency %d", h.freq))
	}
}
