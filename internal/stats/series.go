package stats

import "math"

// Point is one plotted point of a latency distribution: a latency bin in
// milliseconds with the percentage of samples falling in it and at or above
// it. Figure 4 of the paper plots Percent against the bin on log-log axes.
type Point struct {
	LoMs, HiMs  float64 // bin edges in milliseconds
	Count       uint64
	Percent     float64 // % of samples in [LoMs, HiMs)
	CCDFPercent float64 // % of samples >= LoMs
}

// BandPoint is a Point augmented with the simultaneous DKW confidence band
// around its CCDF value: with probability ≥ confidence, the true
// P(latency ≥ LoMs) lies in [CCDFLoPercent, CCDFHiPercent] — at every bin
// at once, since the DKW band is simultaneous over the whole distribution.
type BandPoint struct {
	Point
	CCDFLoPercent, CCDFHiPercent float64
}

// OctaveBandSeries is OctaveSeries with the DKW band attached: each bin
// carries the band around the empirical CCDF at the bin's lower edge.
func (h *Histogram) OctaveBandSeries(loMs, hiMs, confidence float64) []BandPoint {
	pts := h.OctaveSeries(loMs, hiMs)
	out := make([]BandPoint, len(pts))
	for i, p := range pts {
		lo, hi := h.CCDFBand(h.freq.FromMillis(p.LoMs), confidence)
		out[i] = BandPoint{Point: p, CCDFLoPercent: lo * 100, CCDFHiPercent: hi * 100}
	}
	return out
}

// OctaveSeries aggregates the histogram into power-of-two bins in
// milliseconds, matching the axes of Figure 4 (0.125, 0.25, ..., 128 ms for
// the thread plots; 1..128 ms for the DPC plots). Bins are clipped to
// [loMs, hiMs]; samples below the first bin are folded into it and samples
// above the last into the last, as the paper's edge bins do.
func (h *Histogram) OctaveSeries(loMs, hiMs float64) []Point {
	if h.n == 0 || loMs <= 0 || hiMs <= loMs {
		return nil
	}
	var pts []Point
	for lo := loMs; lo < hiMs; lo *= 2 {
		pts = append(pts, Point{LoMs: lo, HiMs: lo * 2})
	}
	total := float64(h.n)
	for i := range h.counts {
		c := h.counts[i]
		if c == 0 {
			continue
		}
		ms := h.freq.Millis(bucketLow(i))
		j := 0
		if ms > 0 {
			j = int(math.Floor(math.Log2(ms / loMs)))
		} else {
			j = -1
		}
		if j < 0 {
			j = 0
		}
		if j >= len(pts) {
			j = len(pts) - 1
		}
		pts[j].Count += c
	}
	// Percent and CCDF.
	var above uint64
	for i := len(pts) - 1; i >= 0; i-- {
		above += pts[i].Count
		pts[i].Percent = float64(pts[i].Count) / total * 100
		pts[i].CCDFPercent = float64(above) / total * 100
	}
	return pts
}
