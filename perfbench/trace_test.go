package main

import (
	"testing"
	"time"
)

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "request", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Start: 20, End: 40},  // overlaps a: counts once
		{Name: "c", Parent: 0, Start: 90, End: 120}, // runs past the parent: clipped
		{Name: "grandchild", Parent: 1, Start: 12, End: 14},
	}
	kids := children(spans)
	if got, want := selfTime(spans, kids[0], 0), 100-30-10; got != time.Duration(want) {
		t.Errorf("root self time %v, want %v", got, want)
	}
	if got := selfTime(spans, kids[1], 1); got != 18 {
		t.Errorf("a self time %v, want 18", got)
	}
	if got := selfTime(spans, kids[4], 4); got != 2 {
		t.Errorf("leaf self time %v, want its duration 2", got)
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	tr := newTracer()
	tr.off = true
	i := tr.begin("request", 0, -1)
	tr.end(i)
	tr.note(i, "hit")
	if i != -1 || len(tr.spans) != 0 {
		t.Fatalf("tracing off recorded span %d of %d", i, len(tr.spans))
	}
	tr.off = false
	root := tr.begin("request", 7, -1)
	child := tr.begin("wire.decode", 7, root)
	tr.end(child)
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[child].Parent != root || tr.spans[root].End < tr.spans[child].End {
		t.Fatalf("spans %+v", tr.spans)
	}
}
