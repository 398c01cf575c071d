package main

import (
	"fmt"
	"math"
	"runtime"

	"streamgraph"
	"streamgraph/internal/compute"
	"streamgraph/internal/graph"
	"streamgraph/internal/oracle"
)

// PageRank is checked against a from-scratch static run of the same
// engine. Both stop once every per-vertex change is below the engine's
// tolerance, and the incremental engine drops changes below it when it
// propagates, so each vertex may differ by about tol/(1-d). Over n
// vertices that bounds the L1 distance of the two rank vectors.
const (
	prTol     = 1e-7 // compute.PageRank's default tolerance
	prDamping = 0.85 // compute.PageRank's default damping
)

func pageRankBound(n int) float64 { return float64(n) * prTol / (1 - prDamping) }

// checkAnalytics compares the system's final analytics with a static run
// of the same engine on the final graph. BFS levels must match exactly.
func checkAnalytics(sys *streamgraph.System, a streamgraph.Analytics, source graph.VertexID) error {
	g := sys.Graph()
	switch a {
	case streamgraph.AnalyticsPageRank:
		ref := &compute.PageRank{}
		ref.Update(g)
		want, got := ref.Ranks(), sys.Ranks()
		if len(got) < len(want) {
			return fmt.Errorf("pagerank: %d ranks, want %d", len(got), len(want))
		}
		l1 := 0.0
		for v := range want {
			l1 += math.Abs(got[v] - want[v])
		}
		if bound := pageRankBound(len(want)); !(l1 <= bound) {
			return fmt.Errorf("pagerank: L1 distance %.4g from the static run exceeds %.4g", l1, bound)
		}
	case streamgraph.AnalyticsBFS:
		ref := &compute.BFS{Source: source}
		ref.Update(g)
		for v, want := range ref.Levels() {
			if got := sys.Level(graph.VertexID(v)); got != want {
				return fmt.Errorf("bfs: level[%d] = %d, static run gives %d", v, got, want)
			}
		}
	}
	return nil
}

// checkGraph verifies the system's final graph against the reference.
func checkGraph(sys *streamgraph.System, m *oracle.Model) error {
	if d := m.Verify(sys.Graph()); d != nil {
		return fmt.Errorf("graph diverges from the reference: %v", d)
	}
	return nil
}

// liveHeap is the heap in use after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
