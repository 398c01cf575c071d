// Package reorder implements batch reordering (RO): the pre-update
// transformation that clusters an input batch's edges per vertex so
// that a single thread can apply all of one vertex's updates without
// locks (Section 3.2 of the paper).
//
// The paper sorts with Boost's parallel stable sort and schedules with
// OpenMP dynamic scheduling. Here each view is a stable counting sort
// over the dense vertex-ID space: O(E + V), sequential, and
// allocation-free once a Reordered value is warm. The update engines
// consume the resulting vertex runs through a dynamic work queue.
//
// Reordering produces two sorted views — by source and by destination —
// because out-edge updates cluster by source while in-edge updates
// cluster by destination, and the two views must be applied as two
// separate passes (one of RO's costs).
package reorder

import (
	"slices"

	"streamgraph/internal/graph"
)

// Reordered is a reordered input batch: the same edges stable-sorted
// by source and by destination, with the vertex runs of each view.
// The zero value is ready to use. Reorder refills it in place and
// keeps its buffers, so a warm value reorders without allocating; a
// value therefore belongs to one caller at a time.
type Reordered struct {
	BySrc, ByDst     []graph.Edge
	SrcRuns, DstRuns []Run
	counts           []int32 // per-vertex offsets; all zero between calls
}

// Run is a maximal contiguous span of edges sharing one vertex key:
// edges[Lo:Hi] all have V as their source (in the BySrc view) or
// destination (ByDst view). A run is the unit of vertex-centric work.
type Run struct {
	V      graph.VertexID
	Lo, Hi int
}

// Len returns the number of edges in the run.
func (r Run) Len() int { return r.Hi - r.Lo }

// Reorder returns a fresh Reordered holding the two sorted views of b
// and their runs. The input batch is not modified.
func Reorder(b *graph.Batch) *Reordered {
	r := new(Reordered)
	r.Reorder(b.Edges, int(b.MaxVertex())+1)
	return r
}

// Reorder refills r with the two sorted views of edges and their runs,
// overwriting the previous batch's. Every endpoint must be below
// numVerts. edges is not modified.
func (r *Reordered) Reorder(edges []graph.Edge, numVerts int) {
	if cap(r.counts) < numVerts {
		r.counts = make([]int32, numVerts)
	}
	r.counts = r.counts[:numVerts]
	r.BySrc = edgeBuf(r.BySrc, len(edges))
	r.ByDst = edgeBuf(r.ByDst, len(edges))
	nSrc := sortByKey(r.BySrc, edges, r.counts, true)
	nDst := sortByKey(r.ByDst, edges, r.counts, false)
	r.SrcRuns = runsOf(slices.Grow(r.SrcRuns[:0], nSrc), r.BySrc, true)
	r.DstRuns = runsOf(slices.Grow(r.DstRuns[:0], nDst), r.ByDst, false)
}

// edgeBuf returns buf grown to n edges, preserving nothing.
func edgeBuf(buf []graph.Edge, n int) []graph.Edge {
	if cap(buf) < n {
		buf = make([]graph.Edge, n)
	}
	return buf[:n]
}

// sortByKey stable-counting-sorts edges into dst by source (bySrc) or
// destination and returns the number of distinct keys, which is the
// view's run count. counts must be all zero on entry and is all zero
// again on return.
func sortByKey(dst, edges []graph.Edge, counts []int32, bySrc bool) int {
	if bySrc {
		for i := range edges {
			counts[edges[i].Src]++
		}
	} else {
		for i := range edges {
			counts[edges[i].Dst]++
		}
	}
	var off int32
	keys := 0
	for v := range counts {
		c := counts[v]
		if c != 0 {
			keys++
		}
		counts[v] = off
		off += c
	}
	if bySrc {
		for i := range edges {
			v := edges[i].Src
			dst[counts[v]] = edges[i]
			counts[v]++
		}
	} else {
		for i := range edges {
			v := edges[i].Dst
			dst[counts[v]] = edges[i]
			counts[v]++
		}
	}
	// The prefix sum wrote an offset into every slot, not just the
	// touched ones, so the reset covers the whole vertex space: an O(V)
	// memclr after an O(V) prefix sum.
	clear(counts)
	return keys
}

// runsOf appends the maximal same-key runs of a sorted view to out.
func runsOf(out []Run, edges []graph.Edge, bySrc bool) []Run {
	lo := 0
	for lo < len(edges) {
		hi := lo + 1
		var v graph.VertexID
		if bySrc {
			v = edges[lo].Src
			for hi < len(edges) && edges[hi].Src == v {
				hi++
			}
		} else {
			v = edges[lo].Dst
			for hi < len(edges) && edges[hi].Dst == v {
				hi++
			}
		}
		out = append(out, Run{V: v, Lo: lo, Hi: hi})
		lo = hi
	}
	return out
}
