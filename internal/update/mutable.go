package update

import "streamgraph/internal/graph"

// ApplyMutable ingests one batch through the coarse-grained Mutable
// interface, applying the exact batch semantics the optimized engines
// implement: all insertions first in batch order (re-inserting an
// existing edge updates its weight, so the last insertion of a key in
// the batch wins), then all deletions in batch order (deleting an
// absent edge is a no-op). It is the sequential reference path for
// stores the batch engines do not target (DAH, tango) and the anchor
// the differential oracle replays every engine against.
//
// Returns the number of edges created and removed.
func ApplyMutable(m graph.Mutable, b *graph.Batch) (created, removed int) {
	inserts, deletes := b.Split()
	for _, e := range inserts {
		if m.InsertEdge(e) {
			created++
		}
	}
	for _, e := range deletes {
		if m.DeleteEdge(e.Src, e.Dst) {
			removed++
		}
	}
	return created, removed
}
