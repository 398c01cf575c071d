package update

import (
	"time"

	"streamgraph/internal/graph"
	"streamgraph/internal/reorder"
)

// Reordered is the RO update engine: it pays for two stable counting
// sorts of the batch (by source and by destination) and in exchange
// applies all updates lock-free, one vertex run per thread. With USC
// enabled it additionally coalesces each run's duplicate-check
// searches into a single scan of the vertex's edge data (Section 4.3).
type Reordered struct {
	Cfg Config
	USC bool
}

// Name implements Engine.
func (e *Reordered) Name() string {
	if e.USC {
		return "ro+usc"
	}
	return "ro"
}

// Apply implements Engine.
func (e *Reordered) Apply(s *graph.AdjacencyStore, b *graph.Batch) Stats {
	start := time.Now()
	var st Stats
	bid := int32(b.ID)
	s.EnsureVertices(int(b.MaxVertex()) + 1)
	workers := e.Cfg.workers()

	// A fresh Reordered per batch: callers of Apply are not guaranteed
	// to be serialized, so the engine holds no reorder scratch.
	r := reorder.Reorder(b)
	st.Sort = time.Since(start)

	updStart := time.Now()
	// Pass 1: out-edges, clustered by source.
	parallelRuns(r.SrcRuns, workers, &st, func(run reorder.Run, w *workerStats) {
		e.applyRun(s, r.BySrc[run.Lo:run.Hi], run.V, true, bid, w)
	})
	// Pass 2: in-edges, clustered by destination.
	if e.Cfg.CollectDstRuns {
		st.DstRunLens = make([]int, len(r.DstRuns))
		for i, run := range r.DstRuns {
			st.DstRunLens[i] = run.Len()
		}
	}
	parallelRuns(r.DstRuns, workers, &st, func(run reorder.Run, w *workerStats) {
		e.applyRun(s, r.ByDst[run.Lo:run.Hi], run.V, false, bid, w)
	})
	st.Update = time.Since(updStart)
	st.Total = time.Since(start)
	// Each edge was visited by both passes; report it once.
	st.EdgesApplied /= 2
	e.Cfg.observe(e.Name(), &st)
	return st
}

// applyRun ingests one vertex run. v is the run's owner; out selects
// the adjacency direction (true: v's out-list keyed by Dst, false:
// v's in-list keyed by Src). The caller guarantees this goroutine is
// the only one touching v's adjacency in this pass.
func (e *Reordered) applyRun(s *graph.AdjacencyStore, edges []graph.Edge, v graph.VertexID, out bool, bid int32, w *workerStats) {
	if e.USC && len(edges) >= e.Cfg.minCoalesce() {
		e.applyRunCoalesced(s, edges, v, out, bid, w)
		return
	}
	// Plain RO: per-edge linear search, but no locks. Insertions
	// first, then deletions (the global update-ordering policy).
	for _, edge := range edges {
		if edge.Delete {
			continue
		}
		key := runKey(edge, out)
		list := adjOf(s, v, out)
		found := false
		for i := range list {
			w.comparisons++
			if list[i].ID == key {
				list[i].Weight = edge.Weight
				found = true
				break
			}
		}
		if !found {
			appendAdj(s, v, out, graph.Neighbor{ID: key, Weight: edge.Weight})
		}
		w.touch(s, edge.Src, bid)
		w.touch(s, edge.Dst, bid)
		w.edges++
	}
	for _, edge := range edges {
		if !edge.Delete {
			continue
		}
		key := runKey(edge, out)
		list := adjOf(s, v, out)
		for i := range list {
			w.comparisons++
			if list[i].ID == key {
				list[i] = list[len(list)-1]
				setAdj(s, v, out, list[:len(list)-1])
				break
			}
		}
		w.touch(s, edge.Src, bid)
		w.touch(s, edge.Dst, bid)
		w.edges++
	}
}

// applyRunCoalesced is USC: populate a hash table with the run's
// targets, scan v's edge data once, update matches in place, and
// append the remainder.
func (e *Reordered) applyRunCoalesced(s *graph.AdjacencyStore, edges []graph.Edge, v graph.VertexID, out bool, bid int32, w *workerStats) {
	ins := make(map[graph.VertexID]graph.Weight, len(edges))
	var del map[graph.VertexID]struct{}
	for _, edge := range edges {
		key := runKey(edge, out)
		if edge.Delete {
			if del == nil {
				//sglint:ignore hotpathalloc lazy one-time allocation: runs at most once per run and only when the batch deletes; hoisting would charge every insert-only run
				del = make(map[graph.VertexID]struct{})
			}
			del[key] = struct{}{}
		} else {
			ins[key] = edge.Weight // last writer in batch order wins
		}
		w.hashOps++
		w.touch(s, edge.Src, bid)
		w.touch(s, edge.Dst, bid)
		w.edges++
	}
	// The update-ordering policy applies every insertion before any
	// deletion, so a key that is both inserted and deleted in this
	// batch ends up deleted.
	for key := range del {
		delete(ins, key)
	}

	// Single scan: update duplicates, drop deletions, keep the rest.
	list := adjOf(s, v, out)
	kept := 0
	for i := range list {
		w.comparisons++
		if _, drop := del[list[i].ID]; drop {
			w.hashOps++
			continue
		}
		if weight, ok := ins[list[i].ID]; ok {
			w.hashOps++
			list[i].Weight = weight
			delete(ins, list[i].ID)
		}
		list[kept] = list[i]
		kept++
	}
	list = list[:kept]
	// Non-matching targets are fresh edges: insert at the end.
	for key, weight := range ins {
		w.hashOps++
		list = append(list, graph.Neighbor{ID: key, Weight: weight})
	}
	setAdj(s, v, out, list)
}

// runKey returns the neighbor ID an edge contributes to v's adjacency
// in the given direction.
func runKey(e graph.Edge, out bool) graph.VertexID {
	if out {
		return e.Dst
	}
	return e.Src
}

func adjOf(s *graph.AdjacencyStore, v graph.VertexID, out bool) []graph.Neighbor {
	if out {
		return s.OutUnsafe(v)
	}
	return s.InUnsafe(v)
}

func setAdj(s *graph.AdjacencyStore, v graph.VertexID, out bool, ns []graph.Neighbor) {
	if out {
		s.SetOutUnsafe(v, ns)
		return
	}
	s.SetInUnsafe(v, ns)
}

func appendAdj(s *graph.AdjacencyStore, v graph.VertexID, out bool, n graph.Neighbor) {
	if out {
		s.AppendOutUnsafe(v, n)
		return
	}
	s.AppendInUnsafe(v, n)
}
