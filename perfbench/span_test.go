package main

import (
	"testing"
	"time"
)

func span(name string, parent int, start, end time.Duration) Span {
	return Span{Name: name, Trace: 1, Parent: parent, Start: start, End: end}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		span("root", -1, 0, 100*ms),
		span("a", 0, 10*ms, 40*ms),
		span("b", 0, 30*ms, 60*ms),  // overlaps a: the overlap counts once
		span("c", 0, 90*ms, 120*ms), // runs past root: only its inside counts
		span("a.child", 1, 15*ms, 20*ms),
	}
	self := SelfTimes(spans)
	want := []time.Duration{
		100*ms - (50*ms + 10*ms), // covered: [10,60] and [90,100]
		30*ms - 5*ms,
		30 * ms,
		30 * ms,
		5 * ms,
	}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%s] = %v, want %v", spans[i].Name, self[i], want[i])
		}
	}
}

func TestSplitLayersAccountsForRoots(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		span(rootSetupBatch, -1, 0, 50*ms), // set-up: left out
		span("update", 0, 0, 50*ms),
		span(rootBatch, -1, 100*ms, 200*ms),
		span("update", 2, 100*ms, 160*ms),
		span("reorder", 3, 100*ms, 120*ms),
		span("compute", 2, 160*ms, 195*ms),
		span(rootFlush, -1, 200*ms, 210*ms),
		span("compute", 6, 200*ms, 210*ms),
	}
	lt := splitLayers(spans)
	if lt.total != 110*ms || lt.glue != 5*ms {
		t.Fatalf("total %v glue %v, want 110ms and 5ms", lt.total, lt.glue)
	}
	if lt.self["update"] != 40*ms || lt.self["reorder"] != 20*ms || lt.self["compute"] != 45*ms {
		t.Errorf("self times %v", lt.self)
	}
	var layers time.Duration
	for _, d := range lt.self {
		layers += d
	}
	if layers+lt.glue != lt.total {
		t.Errorf("layers %v + glue %v != total %v", layers, lt.glue, lt.total)
	}
	if got, want := lt.accounted(), 105.0/110; got != want {
		t.Errorf("accounted = %g, want %g", got, want)
	}
}
