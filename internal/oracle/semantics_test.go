package oracle

import (
	"testing"

	"streamgraph/internal/graph"
)

// edgeState is one expected directed edge in the final graph.
type edgeState struct {
	src, dst graph.VertexID
	weight   graph.Weight
}

// TestDeleteDuplicateSemantics pins the delete/duplicate edge
// semantics every store and engine must share, on explicit
// insert-then-delete-then-reinsert sequences within one batch and
// across batches. Each case runs through the full engine × store
// matrix (baseline, reordered, RO+USC, Mutable over adjacency, DAH,
// tango and epoch, and the adaptive pipeline) and every final state must
// equal the expected edge list exactly.
func TestDeleteDuplicateSemantics(t *testing.T) {
	cases := []struct {
		name    string
		batches [][]graph.Edge
		want    []edgeState
	}{
		{
			name: "insert then delete within one batch",
			batches: [][]graph.Edge{
				{ins(1, 2, 5), del(1, 2)},
			},
			want: nil, // deletions apply after insertions
		},
		{
			name: "delete before insert in stream order, same batch",
			batches: [][]graph.Edge{
				{del(1, 2), ins(1, 2, 5)},
			},
			// The ordering policy is batch-level, not stream-level:
			// the insertion still applies first, then the deletion.
			want: nil,
		},
		{
			name: "insert, delete, reinsert within one batch",
			batches: [][]graph.Edge{
				{ins(1, 2, 5), del(1, 2), ins(1, 2, 9)},
			},
			// Both insertions apply (last weight wins), then the
			// single deletion removes the edge.
			want: nil,
		},
		{
			name: "insert / delete / reinsert across batches",
			batches: [][]graph.Edge{
				{ins(1, 2, 5)},
				{del(1, 2)},
				{ins(1, 2, 9)},
			},
			want: []edgeState{{1, 2, 9}},
		},
		{
			name: "delete and reinsert in the same later batch",
			batches: [][]graph.Edge{
				{ins(1, 2, 5)},
				{del(1, 2), ins(1, 2, 9)},
			},
			// Batch 1's insertion updates the weight first, then the
			// deletion removes the edge.
			want: nil,
		},
		{
			name: "duplicate insertions keep one edge, last weight",
			batches: [][]graph.Edge{
				{ins(1, 2, 5), ins(1, 2, 7), ins(1, 2, 9), ins(3, 1, 1)},
			},
			want: []edgeState{{1, 2, 9}, {3, 1, 1}},
		},
		{
			name: "reinsert updates weight across batches",
			batches: [][]graph.Edge{
				{ins(1, 2, 5)},
				{ins(1, 2, 7)},
			},
			want: []edgeState{{1, 2, 7}},
		},
		{
			name: "delete of absent edge is a no-op",
			batches: [][]graph.Edge{
				{ins(1, 2, 5)},
				{del(2, 1), del(7, 8)}, // neither edge exists
			},
			want: []edgeState{{1, 2, 5}},
		},
		{
			name: "anti-parallel edges are independent",
			batches: [][]graph.Edge{
				{ins(1, 2, 5), ins(2, 1, 6)},
				{del(1, 2)},
			},
			want: []edgeState{{2, 1, 6}},
		},
		{
			name: "duplicate deletions in one batch",
			batches: [][]graph.Edge{
				{ins(1, 2, 5), ins(1, 3, 5)},
				{del(1, 2), del(1, 2)},
			},
			want: []edgeState{{1, 3, 5}},
		},
		{
			name: "churn: repeated insert+delete of one key across batches",
			batches: [][]graph.Edge{
				{ins(4, 5, 1)},
				{del(4, 5), ins(4, 5, 2)}, // net deleted
				{ins(4, 5, 3)},
				{del(4, 5)},
				{ins(4, 5, 4)},
			},
			want: []edgeState{{4, 5, 4}},
		},
	}

	const verts = 16
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			batches := make([]*graph.Batch, len(tc.batches))
			for i, edges := range tc.batches {
				batches[i] = &graph.Batch{ID: i, Edges: edges}
			}
			for _, target := range Matrix(verts, 2) {
				for _, b := range batches {
					target.Apply(b)
				}
				if target.Finish != nil {
					target.Finish()
				}
				assertEdges(t, target.Name, target.Store(), tc.want)
			}
		})
	}
}

// assertEdges checks the store's full directed edge set (with
// weights) against want.
func assertEdges(t *testing.T, name string, s graph.Store, want []edgeState) {
	t.Helper()
	if got := s.NumEdges(); got != len(want) {
		t.Errorf("%s: NumEdges = %d, want %d", name, got, len(want))
	}
	expected := make(map[[2]graph.VertexID]graph.Weight, len(want))
	for _, e := range want {
		expected[[2]graph.VertexID{e.src, e.dst}] = e.weight
	}
	seen := 0
	for v := 0; v < s.NumVertices(); v++ {
		src := graph.VertexID(v)
		s.ForEachOut(src, func(nb graph.Neighbor) {
			seen++
			w, ok := expected[[2]graph.VertexID{src, nb.ID}]
			if !ok {
				t.Errorf("%s: unexpected edge %d->%d (weight %v)", name, src, nb.ID, nb.Weight)
				return
			}
			if w != nb.Weight {
				t.Errorf("%s: edge %d->%d weight = %v, want %v", name, src, nb.ID, nb.Weight, w)
			}
		})
	}
	if seen != len(want) {
		t.Errorf("%s: saw %d edges, want %d", name, seen, len(want))
	}
	for _, e := range want {
		if !s.HasEdge(e.src, e.dst) {
			t.Errorf("%s: HasEdge(%d,%d) = false, want true", name, e.src, e.dst)
		}
	}
	if err := graph.CheckMirror(s); err != nil {
		t.Errorf("%s: %v", name, err)
	}
}
