package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"
)

// Span is one timed call from the benchmark into a layer of the stack.
type Span struct {
	Name       string // "<layer>.<call>", e.g. "fompi.PutNotify"
	Start, End int64  // ns since the tracer's origin
	Parent     int    // index of the enclosing span, -1 for a root
	Req        int64  // request id shared by the spans of one operation
}

// Tracer records spans for one goroutine (one rank), in memory, until the
// run ends. A nil *Tracer is tracing switched off: Begin and End cost one
// nil check, so the untimed and timed code paths are the same code.
type Tracer struct {
	origin  time.Time
	spans   []Span
	limit   int
	dropped int
}

// spanLimit caps the spans one tracer keeps (about 50 MB at worst).
const spanLimit = 1 << 20

// NewTracer returns a tracer whose timestamps count from origin.
func NewTracer(origin time.Time) *Tracer {
	return &Tracer{origin: origin, limit: spanLimit, spans: make([]Span, 0, 1<<16)}
}

// Begin opens a span and returns its index, or -1 when tracing is off or
// the tracer is full.
func (t *Tracer) Begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	if len(t.spans) >= t.limit {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, Span{Name: name, Start: int64(time.Since(t.origin)), End: -1, Parent: parent, Req: req})
	return len(t.spans) - 1
}

// End closes the span Begin returned.
func (t *Tracer) End(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.origin))
}

// Record adds a root span whose times were taken elsewhere, such as an
// open-loop operation timed from its scheduled arrival.
func (t *Tracer) Record(name string, start, end time.Time, req int64) {
	if t == nil {
		return
	}
	if len(t.spans) >= t.limit {
		t.dropped++
		return
	}
	t.spans = append(t.spans, Span{Name: name, Start: int64(start.Sub(t.origin)),
		End: int64(end.Sub(t.origin)), Parent: -1, Req: req})
}

// Trace is the merged span set of a run.
type Trace struct {
	Spans   []Span
	Dropped int
}

// Add appends a tracer's spans, rebasing its parent indices.
func (tr *Trace) Add(t *Tracer) {
	if t == nil {
		return
	}
	base := len(tr.Spans)
	for _, s := range t.spans {
		if s.End < 0 {
			continue // never closed: the call panicked; the run error reports it
		}
		if s.Parent >= 0 {
			s.Parent += base
		}
		tr.Spans = append(tr.Spans, s)
	}
	tr.Dropped += t.dropped
}

// SelfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover (overlapping children count once).
func SelfTimes(spans []Span) []int64 {
	// Group the children by parent (a counting sort): the children of span
	// i are kids[first[i]:first[i+1]].
	first := make([]int32, len(spans)+1)
	for _, s := range spans {
		if s.Parent >= 0 {
			first[s.Parent+1]++
		}
	}
	for i := 1; i < len(first); i++ {
		first[i] += first[i-1]
	}
	kids := make([]int32, first[len(spans)])
	next := append([]int32(nil), first[:len(spans)]...)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[next[s.Parent]] = int32(i)
			next[s.Parent]++
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - covered(spans, kids[first[i]:first[i+1]], s.Start, s.End)
	}
	return self
}

// covered measures the union of the children's intervals clipped to
// [lo, hi].
func covered(spans []Span, kids []int32, lo, hi int64) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := spans[k].Start, spans[k].End
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for i, x := range iv {
		if i == 0 || x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	return total + curB - curA
}

// layerOf is the layer a span name belongs to: the text before its first
// dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// SpanSummary aggregates the spans of one name.
type SpanSummary struct {
	Count   int     `json:"count"`
	TotalUS float64 `json:"total_us"`
	SelfUS  float64 `json:"self_us"`
	P50US   float64 `json:"p50_us"`
	P50OK   bool    `json:"p50_ok"`
}

// Summary is the self-time account of a trace: per span name and per
// layer.
type Summary struct {
	Names  map[string]SpanSummary `json:"names"`
	Layers map[string]float64     `json:"layer_self_us"`
}

// Summarize computes the per-name and per-layer self-time account.
func (tr *Trace) Summarize() Summary {
	self := SelfTimes(tr.Spans)
	durs := map[string][]float64{}
	sum := Summary{Names: map[string]SpanSummary{}, Layers: map[string]float64{}}
	for i, s := range tr.Spans {
		d := float64(s.End-s.Start) / 1e3
		durs[s.Name] = append(durs[s.Name], d)
		n := sum.Names[s.Name]
		n.Count++
		n.TotalUS += d
		n.SelfUS += float64(self[i]) / 1e3
		sum.Names[s.Name] = n
		sum.Layers[layerOf(s.Name)] += float64(self[i]) / 1e3
	}
	for name, ds := range durs {
		n := sum.Names[name]
		n.P50US, n.P50OK = NewDist(ds).Pct(50)
		sum.Names[name] = n
	}
	return sum
}

// spansWritten caps the spans a trace file lists (the summary covers all
// of them), keeping the file near 10 MB.
const spansWritten = 100000

// WriteFile writes the self-time summary and the first spansWritten spans
// (name, start, end, parent, request id) as one JSON document.
func (tr *Trace) WriteFile(path, workload string, seed int64, sum Summary) error {
	type spanOut struct {
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Parent int    `json:"parent"`
		Req    int64  `json:"req"`
	}
	out := struct {
		Workload string    `json:"workload"`
		Seed     int64     `json:"seed"`
		Total    int       `json:"spans_total"`
		Dropped  int       `json:"spans_dropped"`
		Summary  Summary   `json:"summary"`
		Spans    []spanOut `json:"spans"`
	}{Workload: workload, Seed: seed, Total: len(tr.Spans), Dropped: tr.Dropped, Summary: sum}
	n := min(len(tr.Spans), spansWritten)
	out.Spans = make([]spanOut, n)
	for i, s := range tr.Spans[:n] {
		out.Spans[i] = spanOut{s.Name, s.Start, s.End, s.Parent, s.Req}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(out); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
