package pipeline

import (
	"sort"
	"testing"

	"streamgraph/internal/abr"
	"streamgraph/internal/compute"
	"streamgraph/internal/gen"
	"streamgraph/internal/graph"
	"streamgraph/internal/oca"
)

func batchesFor(short string, size, n int) ([]*graph.Batch, int) {
	p, err := gen.ProfileByName(short)
	if err != nil {
		panic(err)
	}
	p.WarmupEdges = 0
	return gen.Batches(p, size, n), p.Vertices
}

func runPolicy(t *testing.T, pol Policy, batches []*graph.Batch, verts int, mutate func(*Config)) *Runner {
	t.Helper()
	cfg := Config{
		Policy:  pol,
		Workers: 4,
		OCA:     oca.Config{Disabled: true},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	r := NewRunner(cfg, verts)
	for _, b := range batches {
		r.ProcessBatch(b)
	}
	r.Finish()
	return r
}

func edgeDump(s *graph.AdjacencyStore) string {
	var out []byte
	for v := 0; v < s.NumVertices(); v++ {
		var ns []graph.Neighbor
		s.ForEachOut(graph.VertexID(v), func(n graph.Neighbor) { ns = append(ns, n) })
		sort.Slice(ns, func(i, j int) bool { return ns[i].ID < ns[j].ID })
		for _, n := range ns {
			out = append(out, byte(v), byte(v>>8), byte(v>>16), byte(n.ID), byte(n.ID>>8), byte(n.ID>>16))
		}
	}
	return string(out)
}

// TestAllPoliciesSameFinalGraph: every policy must converge to the
// identical graph state — the execution mode is a performance choice,
// never a semantic one.
func TestAllPoliciesSameFinalGraph(t *testing.T) {
	batches, verts := batchesFor("fb", 2000, 4)
	policies := []Policy{
		Baseline, AlwaysRO, AlwaysROUSC, ABR, ABRUSC, PerfectABR,
		SimBaseline, SimRO, SimROUSC, SimABR, SimABRUSC, SimABRUSCHAU, SimHAU,
	}
	oracle := func(b *graph.Batch) bool { return gen.ReorderFriendly("fb", 2000) }
	var ref string
	for _, pol := range policies {
		r := runPolicy(t, pol, batches, verts, func(c *Config) {
			if pol == PerfectABR {
				c.Oracle = oracle
			}
		})
		d := edgeDump(r.Store())
		if ref == "" {
			ref = d
			continue
		}
		if d != ref {
			t.Fatalf("policy %v produced a different graph", pol)
		}
	}
}

func TestPolicyNames(t *testing.T) {
	want := map[Policy]string{
		Baseline: "baseline", AlwaysRO: "ro", AlwaysROUSC: "ro+usc",
		ABR: "abr", ABRUSC: "abr+usc", PerfectABR: "perfect-abr",
		SimBaseline: "sim-baseline", SimRO: "sim-ro", SimROUSC: "sim-ro+usc",
		SimABR: "sim-abr", SimABRUSC: "sim-abr+usc",
		SimABRUSCHAU: "sim-abr+usc+hau", SimHAU: "sim-hau",
		Policy(99): "unknown",
	}
	for p, name := range want {
		if p.String() != name {
			t.Fatalf("Policy(%d).String() = %q, want %q", p, p.String(), name)
		}
	}
}

// TestABRDecisionsOnStreams: on a reordering-adverse stream ABR must
// switch reordering off after the first active batch; on a friendly
// stream it must keep it on.
func TestABRDecisionsOnStreams(t *testing.T) {
	adverse, verts := batchesFor("lj", 3000, 4)
	r := runPolicy(t, ABRUSC, adverse, verts, nil)
	m := r.Metrics().Batches
	if !m[0].ABRActive || !m[0].Reordered {
		t.Fatal("first batch must be active and reordered (default)")
	}
	for _, bm := range m[1:] {
		if bm.Reordered {
			t.Fatalf("batch %d still reordered on adverse stream", bm.BatchID)
		}
	}

	friendly, verts2 := batchesFor("wiki", 20000, 3)
	r2 := runPolicy(t, ABRUSC, friendly, verts2, nil)
	for _, bm := range r2.Metrics().Batches {
		if !bm.Reordered {
			t.Fatalf("batch %d not reordered on friendly stream", bm.BatchID)
		}
	}
}

// TestABRActiveCadence: with n=2, batches 0, 2, 4 are instrumented.
func TestABRActiveCadence(t *testing.T) {
	batches, verts := batchesFor("fb", 1000, 5)
	r := runPolicy(t, ABRUSC, batches, verts, func(c *Config) {
		c.ABRParams = abr.Params{N: 2, Lambda: 256, TH: 465}
	})
	for i, bm := range r.Metrics().Batches {
		want := i%2 == 0
		if bm.ABRActive != want {
			t.Fatalf("batch %d active=%v, want %v", i, bm.ABRActive, want)
		}
	}
}

// TestOCAAggregation: with compute enabled and forced high locality,
// rounds aggregate pairs of batches; disabled OCA computes per batch.
func TestOCAAggregation(t *testing.T) {
	batches, verts := batchesFor("fb", 20000, 4) // large batches on a small graph → high overlap
	pr := &compute.PageRank{Incremental: true, Workers: 4}
	r := runPolicy(t, Baseline, batches, verts, func(c *Config) {
		c.OCA = oca.Config{} // enabled, default threshold
		c.Compute = pr
	})
	var aggregated, rounds int
	for _, bm := range r.Metrics().Batches {
		if bm.AggregatedBatches > 0 {
			rounds++
			if bm.AggregatedBatches == 2 {
				aggregated++
			}
		}
	}
	if aggregated == 0 {
		t.Fatal("no aggregated rounds on a high-overlap stream")
	}
	if rounds >= len(batches) {
		t.Fatalf("aggregation did not reduce round count: %d rounds", rounds)
	}
	// Every batch is covered.
	total := 0
	for _, bm := range r.Metrics().Batches {
		total += bm.AggregatedBatches
	}
	if total != len(batches) {
		t.Fatalf("compute covered %d batches, want %d", total, len(batches))
	}
}

func TestOCADisabledComputesEveryBatch(t *testing.T) {
	batches, verts := batchesFor("fb", 5000, 3)
	pr := &compute.PageRank{Incremental: true, Workers: 4}
	r := runPolicy(t, Baseline, batches, verts, func(c *Config) {
		c.Compute = pr
	})
	for _, bm := range r.Metrics().Batches {
		if bm.AggregatedBatches != 1 {
			t.Fatalf("batch %d round covered %d batches", bm.BatchID, bm.AggregatedBatches)
		}
	}
}

// TestSimPolicyCycles: Sim policies record cycles, not wall time, and
// the HAU policy beats the simulated baseline on an adverse stream.
func TestSimPolicyCycles(t *testing.T) {
	batches, verts := batchesFor("lj", 3000, 3)
	base := runPolicy(t, SimBaseline, batches, verts, nil)
	hw := runPolicy(t, SimABRUSCHAU, batches, verts, func(c *Config) {
		c.Oracle = func(b *graph.Batch) bool { return false } // adverse
	})
	if base.Metrics().SimCycles() == 0 || hw.Metrics().SimCycles() == 0 {
		t.Fatal("sim policies must record cycles")
	}
	if base.Metrics().UpdateSeconds() != 0 {
		t.Fatal("sim policies must not record wall update time")
	}
	speedup := base.Metrics().SimCycles() / hw.Metrics().SimCycles()
	if speedup <= 1 {
		t.Fatalf("HAU speedup %.2f on adverse stream", speedup)
	}
	for _, bm := range hw.Metrics().Batches {
		if !bm.UsedHAU {
			t.Fatal("adverse batches must use HAU under SimABRUSCHAU")
		}
		if bm.HAUResult == nil {
			t.Fatal("missing HAU result")
		}
	}
}

func TestUpdateSecondsEquivalent(t *testing.T) {
	batches, verts := batchesFor("fb", 1000, 2)
	sw := runPolicy(t, Baseline, batches, verts, nil)
	if sw.Metrics().UpdateSecondsEquivalent(2.5) != sw.Metrics().UpdateSeconds() {
		t.Fatal("software equivalence must be wall time")
	}
	hw := runPolicy(t, SimHAU, batches, verts, nil)
	want := hw.Metrics().SimCycles() / 2.5e9
	if got := hw.Metrics().UpdateSecondsEquivalent(2.5); got != want {
		t.Fatalf("sim equivalence = %v, want %v", got, want)
	}
}

// TestROFasterOnFriendlyBatches is the headline software direction:
// reordering wins on high-degree batches. Update performance is
// regenerated on the simulated multicore (this host is single-core,
// so wall-clock contention effects cannot manifest — see DESIGN.md).
func TestROFasterOnFriendlyBatches(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation is slow")
	}
	batches, verts := batchesFor("wiki", 50000, 3)
	base := runPolicy(t, SimBaseline, batches, verts, nil)
	ro := runPolicy(t, SimRO, batches, verts, nil)
	speedup := base.Metrics().SimCycles() / ro.Metrics().SimCycles()
	if speedup < 1.3 {
		t.Fatalf("RO speedup on wiki-50K = %.2fx, expected > 1.3x", speedup)
	}
	usc := runPolicy(t, SimROUSC, batches, verts, nil)
	uscSpeedup := base.Metrics().SimCycles() / usc.Metrics().SimCycles()
	if uscSpeedup < speedup {
		t.Fatalf("RO+USC (%.2fx) should beat RO (%.2fx) on friendly batches", uscSpeedup, speedup)
	}
}

// TestAutoTuneAdjustsThreshold: a hub-heavy stream under a
// misconfigured (sky-high) threshold gets its TH walked down by the
// online feedback until ABR starts reordering. The stream is crafted
// so the locked baseline's duplicate scans are an order of magnitude
// more work than USC's coalesced scan — wall-clock noise cannot
// invert the signal.
func TestAutoTuneAdjustsThreshold(t *testing.T) {
	const (
		verts = 8000
		hub   = graph.VertexID(7)
		pool  = 6000 // hub community: the hub's list saturates at 6000
	)
	mkBatch := func(id int) *graph.Batch {
		b := &graph.Batch{ID: id}
		for j := 0; j < 12000; j++ {
			src := graph.VertexID(id*31+j*17) % pool
			if j%20 == 0 { // scatter a few edges off-hub
				b.Edges = append(b.Edges, graph.Edge{Src: src + pool, Dst: graph.VertexID(j % verts), Weight: 1})
				continue
			}
			// The baseline pays a long duplicate scan per hub edge;
			// USC coalesces the whole run into one scan — a ~10x gap
			// that wall-clock noise cannot invert.
			b.Edges = append(b.Edges, graph.Edge{Src: src, Dst: hub, Weight: 1})
		}
		return b
	}
	cfg := Config{
		Policy:    ABRUSC,
		Workers:   2,
		AutoTune:  true,
		ABRParams: abr.Params{N: 2, Lambda: 256, TH: 50000},
		OCA:       oca.Config{Disabled: true},
	}
	r := NewRunner(cfg, verts)
	for i := 0; i < 24; i++ {
		r.ProcessBatch(mkBatch(i))
	}
	if r.TunedParams().TH >= 50000 {
		t.Fatalf("AutoTune never moved TH: %v", r.TunedParams().TH)
	}
	// Without AutoTune the params stay fixed.
	r2 := NewRunner(Config{Policy: ABRUSC, Workers: 2,
		ABRParams: abr.Params{N: 2, Lambda: 256, TH: 50000},
		OCA:       oca.Config{Disabled: true}}, verts)
	for i := 0; i < 4; i++ {
		r2.ProcessBatch(mkBatch(i))
	}
	if r2.TunedParams().TH != 50000 {
		t.Fatal("params moved without AutoTune")
	}
}

// TestConcurrentComputeEquivalence: overlapping compute rounds with
// the next update (on CSR snapshots) yields the same final analytics
// as the sequential pipeline.
func TestConcurrentComputeEquivalence(t *testing.T) {
	batches, verts := batchesFor("fb", 3000, 6)
	runWith := func(concurrent bool) *compute.SSSP {
		eng := &compute.SSSP{Source: 0, Workers: 2, Incremental: true}
		r := NewRunner(Config{
			Policy:            Baseline,
			Workers:           2,
			Compute:           eng,
			ConcurrentCompute: concurrent,
			OCA:               oca.Config{Disabled: true},
		}, verts)
		for _, b := range batches {
			r.ProcessBatch(b)
		}
		r.Finish()
		// Every batch got a compute round.
		total := 0
		for _, bm := range r.Metrics().Batches {
			total += bm.AggregatedBatches
		}
		if total != len(batches) {
			t.Fatalf("concurrent=%v: %d batches computed, want %d", concurrent, total, len(batches))
		}
		return eng
	}
	seq := runWith(false)
	conc := runWith(true)
	ds, dc := seq.Distances(), conc.Distances()
	if len(dc) < len(ds) {
		t.Fatalf("concurrent distances shorter: %d vs %d", len(dc), len(ds))
	}
	for v := range ds {
		if ds[v] != dc[v] {
			t.Fatalf("dist[%d]: sequential %v vs concurrent %v", v, ds[v], dc[v])
		}
	}
}
