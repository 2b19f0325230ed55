package main

import (
	"testing"
	"time"
)

// A hand-built tree:
//
//	0 op       [0, 100)
//	1  call A  [10, 40)
//	2   sub    [20, 30)
//	3  call B  [30, 60)   overlaps A by 10
//	4  call C  [90, 120)  runs past the parent's end
//	5 other    [200, 210)
func handTree() []Span {
	return []Span{
		{Name: "bench.op", Start: 0, End: 100, Parent: -1, Req: 1},
		{Name: "fompi.A", Start: 10, End: 40, Parent: 0, Req: 1},
		{Name: "core.sub", Start: 20, End: 30, Parent: 1, Req: 1},
		{Name: "fompi.B", Start: 30, End: 60, Parent: 0, Req: 1},
		{Name: "fompi.C", Start: 90, End: 120, Parent: 0, Req: 1},
		{Name: "bench.op", Start: 200, End: 210, Parent: -1, Req: 2},
	}
}

func TestSelfTimeIsSpanMinusCoveredChildTime(t *testing.T) {
	got := SelfTimes(handTree())
	// op: 100 - |[10,60) ∪ [90,100)| = 100 - 60 = 40
	// A: 30 - 10 = 20; sub: 10; B: 30; C: 30; other: 10
	want := []int64{40, 20, 10, 30, 30, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d self = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestSummarizeLayers(t *testing.T) {
	tr := Trace{Spans: handTree()}
	sum := tr.Summarize()
	// bench: 40+10 ns, fompi: 20+30+30 ns, core: 10 ns.
	for layer, ns := range map[string]float64{"bench": 50, "fompi": 80, "core": 10} {
		if got := sum.Layers[layer]; got != ns/1e3 {
			t.Errorf("layer %s self = %v us, want %v", layer, got, ns/1e3)
		}
	}
	if c := sum.Names["bench.op"].Count; c != 2 {
		t.Errorf("bench.op count = %d, want 2", c)
	}
}

func TestTracerRebasesParents(t *testing.T) {
	var off *Tracer
	if id := off.Begin("x.y", -1, 0); id != -1 {
		t.Fatalf("nil tracer Begin = %d, want -1", id)
	}
	off.End(-1)

	origin := time.Now()
	a, b := NewTracer(origin), NewTracer(origin)
	a.End(a.Begin("a.root", -1, 1))
	root := b.Begin("b.root", -1, 2)
	b.End(b.Begin("b.kid", root, 2))
	b.End(root)
	var tr Trace
	tr.Add(a)
	tr.Add(b)
	if len(tr.Spans) != 3 || tr.Spans[2].Parent != 1 {
		t.Fatalf("merged spans = %+v; want the kid's parent rebased to 1", tr.Spans)
	}
}
