package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Names are
// "<layer>.<operation>"; Req is the request the call served (a campaign
// id, a cell key, or a worker id), shared by every span of one request.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

func (s *span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// elapsed is the trace clock now, in nanoseconds.
func (t *tracer) elapsed() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

// open is a started span; close it exactly once.
type open struct {
	t      *tracer
	parent int
	name   string
	req    string
	start  time.Time
}

func (t *tracer) start(name, req string, parent int) open {
	return open{t: t, parent: parent, name: name, req: req, start: time.Now()}
}

// end records the span.
func (o open) end() {
	if o.t == nil {
		return
	}
	o.t.mu.Lock()
	defer o.t.mu.Unlock()
	o.t.spans = append(o.t.spans, span{
		ID: len(o.t.spans) + 1, Parent: o.parent, Name: o.name, Req: o.req,
		Start: int64(o.start.Sub(o.t.t0)), End: int64(time.Since(o.t.t0)),
	})
}

// endReq is end with the request id learned during the call.
func (o open) endReq(req string) {
	o.req = req
	o.end()
}

// reserve returns an id for a span whose children are recorded before it
// ends (a root span); fill it later with finish.
func (t *tracer) reserve() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1})
	return len(t.spans)
}

func (t *tracer) finish(id int, name, req string, start, end time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1] = span{ID: id, Name: name, Req: req, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))}
}

// snapshot links, computes self time, and returns a copy of the spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	link(out)
	selfTimes(out)
	return out
}

func layerRank(l string) int {
	for i, x := range spanLayers {
		if x == l {
			return i
		}
	}
	return len(spanLayers)
}

// link attaches spans recorded without a parent — those on the far side of
// an HTTP hop or a callback that cannot see the caller's span — to the
// innermost span of an outer layer that contains them in time and serves
// the same request, or any request when the span carries none.
func link(spans []span) {
	byReq := map[string][]int{}
	var all []int
	for i := range spans {
		byReq[spans[i].Req] = append(byReq[spans[i].Req], i)
		all = append(all, i)
	}
	for i := range spans {
		s := &spans[i]
		if s.Parent != 0 || layerRank(s.layer()) == 0 {
			continue
		}
		cands := all
		if s.Req != "" {
			cands = byReq[s.Req]
		}
		best := -1
		for _, j := range cands {
			c := &spans[j]
			if j == i || layerRank(c.layer()) >= layerRank(s.layer()) || c.Start > s.Start || c.End < s.End {
				continue
			}
			if best < 0 || c.dur() < spans[best].dur() {
				best = j
			}
		}
		if best >= 0 {
			s.Parent = spans[best].ID
		}
	}
}

// selfTimes sets each span's Self: its duration minus the part of it its
// children cover (overlapping children count once).
func selfTimes(spans []span) {
	kids := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range spans {
		s := &spans[i]
		s.Self = (s.End - s.Start) - covered(kids[s.ID], s.Start, s.End)
	}
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// selfShares returns each span layer's share of all self time.
func selfShares(spans []span) map[string]float64 {
	by := map[string]float64{}
	var total float64
	for _, s := range spans {
		by[s.layer()] += float64(s.Self)
		total += float64(s.Self)
	}
	out := map[string]float64{}
	for _, l := range spanLayers {
		if total > 0 {
			out[l] = by[l] / total
		} else {
			out[l] = 0
		}
	}
	return out
}

// spanMetrics are the per-layer metrics every traced workload takes from
// its spans: cell execution times and each layer's share of self time.
func spanMetrics(spans []span) metrics {
	cells := durations(spans, "core.run")
	m := metrics{"core.cell_ms_p50": quantile(cells, 0.5), "core.cell_ms_p90": quantile(cells, 0.9)}
	for l, v := range selfShares(spans) {
		m["self."+l+"_frac"] = v
	}
	return m
}

// durations returns the durations of spans named name, in milliseconds.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

func writeTrace(path, workload string, spans []span) error {
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// traceHandler wraps the service's handler with one span per request,
// named after the route it hit. Campaign routes carry the campaign id;
// worker routes the worker id. A submission's id is only known from its
// response, so that body is sniffed.
func traceHandler(t *tracer, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name, req := routeSpan(r.Method, r.URL.Path)
		o := t.start(name, req, 0)
		if name == "server.submit" {
			rec := &sniffer{ResponseWriter: w}
			h.ServeHTTP(rec, r)
			var st struct {
				ID string `json:"id"`
			}
			_ = json.Unmarshal(rec.buf.Bytes(), &st) // a non-status body just leaves the span without an id
			o.endReq(st.ID)
			return
		}
		h.ServeHTTP(w, r)
		o.end()
	})
}

func routeSpan(method, path string) (name, req string) {
	p := strings.Split(strings.Trim(path, "/"), "/")
	switch {
	case len(p) == 2 && p[1] == "campaigns" && method == http.MethodPost:
		return "server.submit", ""
	case len(p) == 4 && p[1] == "campaigns":
		return "server." + p[3], p[2]
	case len(p) == 3 && p[1] == "campaigns":
		return "server.status", p[2]
	case len(p) == 4 && p[1] == "workers":
		// A lease or completion serves whichever campaign is running, not
		// a request of its own, so it carries no request id.
		return "coordinator." + strings.TrimSuffix(p[3], "s"), ""
	case len(p) >= 2 && (p[1] == "workers" || p[1] == "fleet"):
		return "coordinator." + p[1], ""
	}
	return "server." + strings.Join(p, "_"), ""
}

type sniffer struct {
	http.ResponseWriter
	buf bytes.Buffer
}

func (s *sniffer) Write(b []byte) (int, error) {
	if s.buf.Len() < 4096 {
		s.buf.Write(b)
	}
	return s.ResponseWriter.Write(b)
}

// Flush keeps streaming responses streaming through the sniffer.
func (s *sniffer) Flush() {
	if f, ok := s.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
