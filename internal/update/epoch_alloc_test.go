package update_test

// Allocation-regression gates for the lock-free ingest path. The
// claim is zero allocations per edge end-to-end once the engine is
// warm: the arena's counting sort reuses its buffers, the store's
// chunk pool recycles version memory batch-over-batch (with no pinned
// readers a batch's retired chunks are reclaimable by its own
// FinishBatch), and nothing on the per-edge path boxes, closes over,
// or appends. These tests pin that down dynamically (without -race,
// whose instrumentation allocates); sglint's hotpathalloc analyzer
// polices the same property statically.

import (
	"runtime"
	"testing"

	"streamgraph/internal/gen"
	"streamgraph/internal/graph"
	"streamgraph/internal/update"
)

// warmEpoch returns a store and engine in steady state: the stream
// has been applied once, so the vertex table, arena buffers and chunk
// pool have all reached their working sizes.
func warmEpoch(workers int) (*graph.EpochStore, *update.EpochEngine, []*graph.Batch) {
	spec := gen.AdvSpec{Kind: gen.AdvMixed, Seed: 7, Vertices: 1024, BatchSize: 2048, Batches: 6}
	batches := spec.Generate()
	st := graph.NewEpochStore(1024, graph.EpochOptions{})
	eng := &update.EpochEngine{Cfg: update.Config{Workers: workers}}
	for _, b := range batches {
		eng.Apply(st, b)
	}
	return st, eng, batches
}

// TestEpochIngestZeroAlloc is the hard gate: the single-worker (inline)
// ingest path must allocate nothing at all per batch once warm — not
// zero per edge, zero, full stop.
func TestEpochIngestZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	st, eng, batches := warmEpoch(1)
	b := batches[len(batches)-1]
	runtime.GC()
	allocs := testing.AllocsPerRun(10, func() {
		eng.Apply(st, b)
	})
	if allocs != 0 {
		t.Fatalf("single-worker epoch ingest: %v allocs per batch (%d edges), want 0", allocs, b.Size())
	}
}

// TestEpochIngestParallelAllocBound bounds the multi-worker path: the
// per-batch fan-out (worker locals, goroutine starts) is O(workers)
// and amortizes to well under a hundredth of an allocation per edge;
// the per-edge work itself still allocates nothing.
func TestEpochIngestParallelAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	st, eng, batches := warmEpoch(4)
	b := batches[len(batches)-1]
	runtime.GC()
	allocs := testing.AllocsPerRun(10, func() {
		eng.Apply(st, b)
	})
	perEdge := allocs / float64(b.Size())
	if perEdge >= 0.05 {
		t.Fatalf("parallel epoch ingest: %v allocs/batch = %v allocs/edge (%d edges), want < 0.05",
			allocs, perEdge, b.Size())
	}
}
