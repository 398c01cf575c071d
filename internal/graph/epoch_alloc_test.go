package graph_test

// Allocation gate for the wait-free read path: pinning an epoch
// snapshot, walking adjacency through it, reading the published edge
// count and releasing it must allocate nothing once the snapshot pool
// is warm — queries and OCA-gated compute run this loop concurrently
// with ingest, so a per-snapshot allocation would show up as GC
// pressure exactly where the lock-free design promises none.

import (
	"runtime"
	"testing"

	"streamgraph/internal/graph"
)

var epochAllocSink int64

func TestEpochSnapshotReadZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	st := graph.NewEpochStore(256, graph.EpochOptions{})
	for v := 0; v < 128; v++ {
		for d := 1; d <= 4; d++ {
			st.InsertEdge(graph.Edge{
				Src:    graph.VertexID(v),
				Dst:    graph.VertexID((v + d) % 256),
				Weight: graph.Weight(d),
			})
		}
	}
	// The visitor is hoisted so closure construction is not charged to
	// the measured loop — it is built once, like a server handler's.
	visit := func(nb graph.Neighbor) { epochAllocSink += int64(nb.ID) }

	// Warm the snapshot pool, then measure the full pin → walk →
	// count → release cycle.
	warm := st.Snapshot()
	warm.Release()
	runtime.GC()
	allocs := testing.AllocsPerRun(200, func() {
		snap := st.Snapshot()
		for v := 0; v < 128; v++ {
			snap.ForEachOut(graph.VertexID(v), visit)
			snap.ForEachIn(graph.VertexID(v), visit)
		}
		epochAllocSink += int64(snap.NumEdges())
		snap.Release()
	})
	if allocs != 0 {
		t.Fatalf("snapshot read cycle: %v allocs per run, want 0", allocs)
	}
}
