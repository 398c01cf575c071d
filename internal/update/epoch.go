package update

// EpochEngine is the lock-free hot path's update engine: reorder the
// batch with the stable counting sort into the engine's reusable
// arena, apply each vertex run by
// building the vertex's next version in arena memory (graph.EpochStore
// owns the version protocol), and publish the whole batch with one
// epoch advance. No per-vertex locks anywhere — run partitioning gives
// writers exclusivity and epoch pinning gives readers consistency — so
// Stats.Locks is always zero, and a warmed engine allocates nothing
// per edge (the allocation-regression tests pin this down; sglint's
// hotpathalloc polices it statically).

import (
	"sync"
	"sync/atomic"
	"time"

	"streamgraph/internal/graph"
	"streamgraph/internal/reorder"
)

// EpochEngine applies batches to an EpochStore. One engine owns its
// reorder arena; uses of one engine are serialized by the store's
// writer lock (BeginBatch/FinishBatch bracket every Apply).
type EpochEngine struct {
	Cfg   Config
	arena BatchArena
}

// Name identifies the engine in reports and traces.
func (e *EpochEngine) Name() string { return "epoch" }

// epochWorker carries one worker's counters plus the net edge delta
// (out pass only), merged after the join.
type epochWorker struct {
	ws      workerStats
	created int64
	removed int64
}

// Apply ingests b and returns update statistics in the same units as
// the locked engines. The returned epoch (also FinishBatch's value) is
// the batch's position in the store's serialization order.
func (e *EpochEngine) Apply(s *graph.EpochStore, b *graph.Batch) (Stats, uint64) {
	start := time.Now()
	var st Stats
	bid := int32(b.ID)
	workers := e.Cfg.workers()

	s.BeginBatch(workers, int(b.MaxVertex())+1)
	e.arena.Reorder(b.Edges, s.NumVertices())
	st.Sort = time.Since(start)

	updStart := time.Now()
	var delta int64
	delta += e.applyRuns(s, e.arena.SrcRuns, e.arena.BySrc, true, bid, workers, &st)
	if e.Cfg.CollectDstRuns {
		st.DstRunLens = e.arena.DstRunLens()
	}
	e.applyRuns(s, e.arena.DstRuns, e.arena.ByDst, false, bid, workers, &st)
	st.Update = time.Since(updStart)

	epoch := s.FinishBatch(int(delta))
	st.Total = time.Since(start)
	// Each edge was visited by both passes; report it once.
	st.EdgesApplied /= 2
	e.Cfg.observe(e.Name(), &st)
	return st, epoch
}

// applyRuns executes one pass, inline for a single worker (the
// zero-allocation path) and over a joined worker pool otherwise.
// Returns the pass's net created-minus-removed count; only the out
// pass's value contributes to the store's edge total.
func (e *EpochEngine) applyRuns(s *graph.EpochStore, runs []reorder.Run, view []graph.Edge, out bool, bid int32, workers int, st *Stats) int64 {
	if len(runs) == 0 {
		return 0
	}
	if workers > len(runs) {
		workers = len(runs)
	}
	if workers == 1 {
		var w epochWorker
		for i := range runs {
			epochRun(s, 0, runs[i], view, out, bid, &w)
		}
		st.add(&w.ws)
		return w.created - w.removed
	}
	return e.applyRunsParallel(s, runs, view, out, bid, workers, st)
}

// applyRunsParallel fans the pass out across run-partitioned workers,
// each owning its arena index.
//
//sglint:pool epoch update workers join on wg.Wait before the batch publishes; a panic mid-batch must crash rather than publish a half-applied epoch
func (e *EpochEngine) applyRunsParallel(s *graph.EpochStore, runs []reorder.Run, view []graph.Edge, out bool, bid int32, workers int, st *Stats) int64 {
	var next atomic.Int64
	locals := make([]epochWorker, workers)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int, w *epochWorker) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(runs) {
					return
				}
				epochRun(s, k, runs[i], view, out, bid, w)
			}
		}(k, &locals[k])
	}
	wg.Wait()
	var delta int64
	for i := range locals {
		st.add(&locals[i].ws)
		delta += locals[i].created - locals[i].removed
	}
	return delta
}

// epochRun applies one vertex run and folds its counters into w.
func epochRun(s *graph.EpochStore, worker int, run reorder.Run, view []graph.Edge, out bool, bid int32, w *epochWorker) {
	edges := view[run.Lo:run.Hi]
	rs := s.ApplyRun(worker, run.V, out, edges)
	w.ws.comparisons += rs.Comparisons
	w.created += int64(rs.Created)
	w.removed += int64(rs.Removed)
	for i := range edges {
		w.touchEpoch(s, edges[i].Src, bid)
		w.touchEpoch(s, edges[i].Dst, bid)
		w.ws.edges++
	}
}

// touchEpoch is workerStats.touch for the epoch store: maintain
// latest_bid and count unique/overlap vertices exactly once per batch.
func (w *epochWorker) touchEpoch(s *graph.EpochStore, v graph.VertexID, bid int32) {
	unique, overlap := s.TouchBID(v, bid)
	if unique {
		w.ws.unique++
	}
	if overlap {
		w.ws.overlap++
	}
}
