package reorder

import (
	"sort"
	"testing"

	"streamgraph/internal/graph"
)

// decodeBatch turns fuzz bytes into a batch. Vertex IDs are folded
// into a small space so duplicate keys (the interesting case for
// stable sorting and run formation) dominate.
func decodeBatch(data []byte) *graph.Batch {
	b := &graph.Batch{ID: 0}
	for i := 0; i+2 < len(data); i += 3 {
		b.Edges = append(b.Edges, graph.Edge{
			Src:    graph.VertexID(data[i] % 32),
			Dst:    graph.VertexID(data[i+1] % 32),
			Weight: graph.Weight(data[i+2] % 8),
			Delete: data[i+2]%16 == 0,
		})
	}
	return b
}

// checkView verifies one sorted view: it must be a stable sort of the
// input by key (which implies it is a permutation), and the runs must
// tile it exactly, one maximal constant-key span per run.
func checkView(t *testing.T, name string, in, view []graph.Edge, runs []Run, key func(graph.Edge) graph.VertexID) {
	t.Helper()
	want := append([]graph.Edge(nil), in...)
	sort.SliceStable(want, func(i, j int) bool { return key(want[i]) < key(want[j]) })
	if len(want) != len(view) {
		t.Fatalf("%s: %d edges out, %d in", name, len(view), len(want))
	}
	for i := range want {
		if want[i] != view[i] {
			t.Fatalf("%s: not a stable sort of the input: index %d is %v, want %v", name, i, view[i], want[i])
		}
	}
	pos := 0
	for i, r := range runs {
		if r.Lo != pos {
			t.Fatalf("%s: run %d starts at %d, want %d (runs must tile the view)", name, i, r.Lo, pos)
		}
		if r.Hi <= r.Lo {
			t.Fatalf("%s: run %d empty (%d,%d)", name, i, r.Lo, r.Hi)
		}
		for j := r.Lo; j < r.Hi; j++ {
			if key(view[j]) != r.V {
				t.Fatalf("%s: run %d owned by %d contains key %d at %d", name, i, r.V, key(view[j]), j)
			}
		}
		if i > 0 && runs[i-1].V == r.V {
			t.Fatalf("%s: runs %d and %d both keyed by %d (not maximal)", name, i-1, i, r.V)
		}
		pos = r.Hi
	}
	if pos != len(view) {
		t.Fatalf("%s: runs cover [0,%d), view has %d edges", name, pos, len(view))
	}
}

// FuzzBatchReorder feeds arbitrary batches through Reorder, both into
// a fresh value and into one warmed by a different batch (a suffix of
// the input over a larger vertex space, chosen by the second argument),
// and checks the reordering contract the lock-free engines rely on:
// both views are stable sorts of the input, and the vertex runs
// partition each view into maximal constant-key spans. Run locally:
//
//	go test -run '^$' -fuzz '^FuzzBatchReorder$' ./internal/reorder
func FuzzBatchReorder(f *testing.F) {
	f.Add([]byte{1, 2, 3, 1, 2, 3, 2, 1, 0}, uint8(1))
	f.Add([]byte{5, 5, 1, 5, 4, 2, 4, 5, 3, 5, 5, 16}, uint8(3))
	f.Add([]byte{9, 0, 0, 0, 9, 1, 9, 9, 2}, uint8(8))
	f.Fuzz(func(t *testing.T, data []byte, warmByte uint8) {
		if len(data) > 3*4096 {
			t.Skip("cap batch length")
		}
		b := decodeBatch(data)
		bySrc := func(e graph.Edge) graph.VertexID { return e.Src }
		byDst := func(e graph.Edge) graph.VertexID { return e.Dst }
		r := Reorder(b)
		checkView(t, "BySrc", b.Edges, r.BySrc, r.SrcRuns, bySrc)
		checkView(t, "ByDst", b.Edges, r.ByDst, r.DstRuns, byDst)

		var warm Reordered
		prev := decodeBatch(data[int(warmByte)%(len(data)+1):])
		warm.Reorder(prev.Edges, 32+int(warmByte))
		warm.Reorder(b.Edges, 32)
		checkView(t, "warm BySrc", b.Edges, warm.BySrc, warm.SrcRuns, bySrc)
		checkView(t, "warm ByDst", b.Edges, warm.ByDst, warm.DstRuns, byDst)
	})
}
