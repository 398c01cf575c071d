package reorder

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"streamgraph/internal/graph"
)

func randomBatch(rng *rand.Rand, n, vspace int) *graph.Batch {
	b := &graph.Batch{Edges: make([]graph.Edge, n)}
	for i := range b.Edges {
		b.Edges[i] = graph.Edge{
			Src: graph.VertexID(rng.Intn(vspace)),
			Dst: graph.VertexID(rng.Intn(vspace)),
			// Weight tags input position so stability is observable.
			Weight: graph.Weight(i),
		}
	}
	return b
}

func checkSortedStable(t *testing.T, edges []graph.Edge, key func(graph.Edge) graph.VertexID) {
	t.Helper()
	for i := 1; i < len(edges); i++ {
		if key(edges[i-1]) > key(edges[i]) {
			t.Fatalf("not sorted at %d: %v > %v", i, key(edges[i-1]), key(edges[i]))
		}
		if key(edges[i-1]) == key(edges[i]) && edges[i-1].Weight > edges[i].Weight {
			t.Fatalf("not stable at %d", i)
		}
	}
}

func checkPermutation(t *testing.T, orig, sorted []graph.Edge) {
	t.Helper()
	if len(orig) != len(sorted) {
		t.Fatalf("length changed: %d -> %d", len(orig), len(sorted))
	}
	count := make(map[graph.Edge]int, len(orig))
	for _, e := range orig {
		count[e]++
	}
	for _, e := range sorted {
		count[e]--
		if count[e] < 0 {
			t.Fatalf("edge %v appears too often in sorted view", e)
		}
	}
}

func TestReorderSortedStablePermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 7, 100, 5000, 40000} {
		b := randomBatch(rng, n, 64)
		r := Reorder(b)
		checkSortedStable(t, r.BySrc, func(e graph.Edge) graph.VertexID { return e.Src })
		checkSortedStable(t, r.ByDst, func(e graph.Edge) graph.VertexID { return e.Dst })
		checkPermutation(t, b.Edges, r.BySrc)
		checkPermutation(t, b.Edges, r.ByDst)
	}
}

func TestReorderDoesNotMutateInput(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	b := randomBatch(rng, 10000, 16)
	before := make([]graph.Edge, len(b.Edges))
	copy(before, b.Edges)
	Reorder(b)
	for i := range before {
		if b.Edges[i] != before[i] {
			t.Fatalf("input mutated at %d", i)
		}
	}
}

func TestRunsCoverBatch(t *testing.T) {
	f := func(seed int64, sz uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(sz)%3000 + 1
		b := randomBatch(rng, n, 40)
		r := Reorder(b)
		for _, view := range []struct {
			edges []graph.Edge
			runs  []Run
			key   func(graph.Edge) graph.VertexID
		}{
			{r.BySrc, r.SrcRuns, func(e graph.Edge) graph.VertexID { return e.Src }},
			{r.ByDst, r.DstRuns, func(e graph.Edge) graph.VertexID { return e.Dst }},
		} {
			pos := 0
			for _, run := range view.runs {
				if run.Lo != pos || run.Hi <= run.Lo {
					return false
				}
				for i := run.Lo; i < run.Hi; i++ {
					if view.key(view.edges[i]) != run.V {
						return false
					}
				}
				// Maximality: next edge (if any) has a different key.
				if run.Hi < len(view.edges) && view.key(view.edges[run.Hi]) == run.V {
					return false
				}
				pos = run.Hi
			}
			if pos != len(view.edges) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRunLen(t *testing.T) {
	r := Run{V: 3, Lo: 2, Hi: 7}
	if r.Len() != 5 {
		t.Fatalf("Len = %d", r.Len())
	}
}

// TestReuseMatchesFresh: reordering into a Reordered that last held a
// larger batch over a larger vertex space yields exactly the views and
// runs of a fresh Reorder — no stale edges, runs or offsets carry over.
func TestReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var warm Reordered
	warm.Reorder(randomBatch(rng, 30000, 5000).Edges, 5000)
	for _, n := range []int{20000, 100, 0, 7} {
		b := randomBatch(rng, n, 100)
		fresh := Reorder(b)
		warm.Reorder(b.Edges, 100)
		if !slices.Equal(warm.BySrc, fresh.BySrc) || !slices.Equal(warm.ByDst, fresh.ByDst) {
			t.Fatalf("n=%d: reused views differ from fresh ones", n)
		}
		if !slices.Equal(warm.SrcRuns, fresh.SrcRuns) || !slices.Equal(warm.DstRuns, fresh.DstRuns) {
			t.Fatalf("n=%d: reused runs differ from fresh ones", n)
		}
	}
}

// TestReorderBoundaries covers shapes FuzzBatchReorder cannot reach,
// since it folds IDs into [0, 32): an empty batch, a single edge, and
// IDs at the top of a 1M-vertex space.
func TestReorderBoundaries(t *testing.T) {
	const top = 1<<20 - 1
	bySrc := func(e graph.Edge) graph.VertexID { return e.Src }
	byDst := func(e graph.Edge) graph.VertexID { return e.Dst }
	for name, edges := range map[string][]graph.Edge{
		"empty":  nil,
		"single": {{Src: 3, Dst: 9, Weight: 1}},
		"top": {
			{Src: top, Dst: 0, Weight: 1},
			{Src: 0, Dst: top, Weight: 2},
			{Src: top, Dst: top, Weight: 3},
			{Src: top - 1, Dst: top, Weight: 4, Delete: true},
			{Src: top, Dst: 0, Weight: 5},
		},
	} {
		b := &graph.Batch{Edges: edges}
		r := Reorder(b)
		checkView(t, name+" BySrc", b.Edges, r.BySrc, r.SrcRuns, bySrc)
		checkView(t, name+" ByDst", b.Edges, r.ByDst, r.DstRuns, byDst)
		if len(edges) == 0 && (len(r.SrcRuns) != 0 || len(r.DstRuns) != 0) {
			t.Fatalf("empty batch produced runs %v %v", r.SrcRuns, r.DstRuns)
		}
	}
	// The top-of-space batch's runs, spelled out.
	b := &graph.Batch{Edges: []graph.Edge{{Src: top, Dst: 0}, {Src: 0, Dst: top}, {Src: top, Dst: top}}}
	r := Reorder(b)
	if want := []Run{{V: 0, Lo: 0, Hi: 1}, {V: top, Lo: 1, Hi: 3}}; !slices.Equal(r.SrcRuns, want) {
		t.Fatalf("SrcRuns = %v, want %v", r.SrcRuns, want)
	}
}

// TestReorderAllocs: once warm, reordering a batch allocates nothing —
// the offsets, both views and both run slices are reused.
func TestReorderAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	b := randomBatch(rand.New(rand.NewSource(4)), 50000, 20000)
	nv := int(b.MaxVertex()) + 1
	var r Reordered
	r.Reorder(b.Edges, nv)
	if allocs := testing.AllocsPerRun(10, func() { r.Reorder(b.Edges, nv) }); allocs != 0 {
		t.Fatalf("warm Reorder of %d edges: %v allocs, want 0", b.Size(), allocs)
	}
}

// BenchmarkReorder measures one batch shaped like hub ingest (50K
// edges over 150K vertices), reordered into a fresh value per batch as
// the RO engine does, and into a warm value as the epoch engine does.
func BenchmarkReorder(b *testing.B) {
	batch := randomBatch(rand.New(rand.NewSource(5)), 50000, 150000)
	b.Run("fresh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Reorder(batch)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch.Size()), "ns/edge")
	})
	b.Run("warm", func(b *testing.B) {
		var r Reordered
		nv := int(batch.MaxVertex()) + 1
		for i := 0; i < b.N; i++ {
			r.Reorder(batch.Edges, nv)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch.Size()), "ns/edge")
	})
}
