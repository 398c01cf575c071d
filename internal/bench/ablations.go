package bench

import (
	"fmt"
	"time"

	"streamgraph/internal/abr"
	"streamgraph/internal/gen"
	"streamgraph/internal/graph"
	"streamgraph/internal/hau"
	"streamgraph/internal/oca"
	"streamgraph/internal/pipeline"
	"streamgraph/internal/sim"
	"streamgraph/internal/stats"
	"streamgraph/internal/update"
)

func init() {
	register(Experiment{
		ID:    "abl-metric",
		Title: "Ablation D1: CAD_λ vs plain average degree vs max degree as the ABR decider",
		Paper: "Section 4.2 argues average degree obscures the high/low-degree distinction because most batch vertices are low-degree; CAD reaches 97% accuracy",
		Run:   runAblMetric,
	})
	register(Experiment{
		ID:    "abl-assign",
		Title: "Ablation D3: vertex-mod-N task assignment vs round-robin in HAU",
		Paper: "Section 4.4.3: hashing keeps every vertex's updates on the core that owns its edge data — race-free and 98-99% tile-local; a balance-only policy forfeits that",
		Run:   runAblAssign,
	})
	register(Experiment{
		ID:    "abl-oca",
		Title: "Ablation D4: OCA threshold sweep",
		Paper: "Section 5: starting from 0.5 and lowering, 0.25 activates aggregation for the larger batch sizes with high speedup; below 0.25 small batches aggregate for little gain",
		Run:   runAblOCA,
	})
	register(Experiment{
		ID:    "abl-dah",
		Title: "Ablation D5: adjacency list vs degree-aware hashing store",
		Paper: "Section 6.2.3: for wiki-100K, DAH beats the plain AS baseline (1.95x) but AS+RO+USC (2.1x) beats DAH — one data structure plus ABR suffices",
		Run:   runAblDAH,
	})
}

// runAblMetric compares the three decision metrics' accuracy over the
// suite (the per-batch ground truth is the paper's Fig. 3 class).
func runAblMetric(cfg Config) []Table {
	t := Table{
		Title:   "D1 — decision accuracy by metric",
		Columns: []string{"metric", "threshold", "accuracy"},
	}
	type decider struct {
		name string
		th   float64
		f    func(h *stats.Histogram) float64
	}
	deciders := []decider{
		{"CAD_256 (paper)", 465, func(h *stats.Histogram) float64 { return abr.CAD(h, 256) }},
		{"mean degree", 1.5, abr.MeanDegree},
		{"mean degree", 3, abr.MeanDegree},
		{"max degree", 465, abr.MaxDegree},
	}
	counts := make([]int, len(deciders))
	total := 0
	for _, p := range cfg.datasets() {
		p.WarmupEdges = 0
		s := gen.NewStream(p)
		for _, size := range cfg.sizes() {
			for i := 0; i < 2; i++ {
				h := s.NextBatch(size).InDegreeHist()
				want := gen.ReorderFriendly(p.Short, size)
				total++
				for d, dec := range deciders {
					if (dec.f(h) >= dec.th) == want {
						counts[d]++
					}
				}
			}
		}
	}
	for d, dec := range deciders {
		t.AddRow(dec.name, fmt.Sprintf("%g", dec.th),
			fmt.Sprintf("%.1f%%", 100*float64(counts[d])/float64(total)))
	}
	t.Notes = append(t.Notes,
		"mean degree sits in a narrow band regardless of class, so no threshold separates it well; max degree tracks CAD but is noisier (a single outlier vertex flips it)")
	return []Table{t}
}

// runAblAssign compares HAU task assignment policies on uk.
func runAblAssign(cfg Config) []Table {
	p := mustProfile("uk")
	size, n := 50000, cfg.batches()
	if cfg.Quick {
		size = 10000
	}
	t := Table{
		Title:   fmt.Sprintf("D3 — HAU task assignment on uk@%d", size),
		Columns: []string{"policy", "cycles", "edge-line locality", "task imbalance (max/min)"},
	}
	for _, pol := range []hau.AssignPolicy{hau.AssignModVertex, hau.AssignRoundRobin, hau.AssignWorkStealing} {
		s := hau.NewSimulator(sim.DefaultConfig(), hau.ModeHAU)
		s.Assign = pol
		g := newStore(p.Vertices)
		stream := gen.NewStream(p)
		var cycles float64
		var last hau.Result
		for i := 0; i < n; i++ {
			b := stream.NextBatch(size)
			last = s.SimulateBatch(b, g)
			cycles += last.Cycles
			applyBatch(g, b)
		}
		var local, remote int64
		var minT, maxT int64 = 1 << 62, 0
		for c, r := range last.PerCore {
			if c == 0 {
				continue
			}
			local += r.EdgeLocal
			remote += r.EdgeRemote
			if r.Tasks < minT {
				minT = r.Tasks
			}
			if r.Tasks > maxT {
				maxT = r.Tasks
			}
		}
		name := "mod-vertex (paper)"
		switch pol {
		case hau.AssignRoundRobin:
			name = "round-robin"
		case hau.AssignWorkStealing:
			name = "work-stealing (paper future work)"
		}
		t.AddRow(name, fmt.Sprintf("%.0f", cycles),
			fmt.Sprintf("%.1f%%", 100*float64(local)/float64(max64(local+remote, 1))),
			fmt.Sprintf("%.3f", float64(maxT)/float64(max64(minT, 1))))
	}
	t.Notes = append(t.Notes,
		"round-robin balances tasks perfectly but loses the cross-batch cache affinity (and, in a real design, the implicit race-freedom)",
		"work-stealing keeps the mod-vertex default and only redirects tasks when the home consumer backlogs — the paper's Section 6.2.3 suggestion")
	return []Table{t}
}

// runAblOCA sweeps the aggregation threshold the way Section 5
// describes choosing 0.25.
func runAblOCA(cfg Config) []Table {
	n := cfg.batches()
	if n < 4 {
		n = 4
	}
	t := Table{
		Title:   "D4 — OCA threshold sweep (fb)",
		Columns: []string{"threshold", "batch", "aggregated rounds", "compute speedup"},
	}
	sizes := []int{10000, 100000}
	if cfg.Quick {
		sizes = []int{10000}
	}
	for _, th := range []float64{0.5, 0.4, 0.3, 0.25, 0.15} {
		for _, size := range sizes {
			w := workload{mustProfile("fb"), size}
			off := run(w, n, runOpts{policy: pipeline.Baseline, compute: newPR(cfg.Workers), workers: cfg.Workers})
			cfgP := pipeline.Config{
				Policy:  pipeline.Baseline,
				Workers: cfg.Workers,
				Compute: newPR(cfg.Workers),
				OCA:     oca.Config{Threshold: th},
			}
			r := pipeline.NewRunner(cfgP, w.p.Vertices)
			s := gen.NewStream(w.p)
			for i := 0; i < n; i++ {
				r.ProcessBatch(s.NextBatch(w.size))
			}
			r.Finish()
			on := r.Metrics()
			agg := 0
			for _, bm := range on.Batches {
				if bm.AggregatedBatches > 1 {
					agg++
				}
			}
			t.AddRow(fmt.Sprintf("%.2f", th), fmt.Sprintf("%d", size),
				fi(int64(agg)), f2(off.ComputeSeconds()/on.ComputeSeconds()))
		}
	}
	t.Notes = append(t.Notes,
		"the paper settles on 0.25: large batches aggregate with real gains; lower thresholds start aggregating small batches for single-digit-percent gains")
	return []Table{t}
}

// runAblDAH reproduces the "impact of other data structures"
// paragraph: single-edge ingestion cost of the adjacency store vs the
// degree-aware hashing store on a hub-heavy stream, against the
// reordered+USC adjacency path.
func runAblDAH(cfg Config) []Table {
	size, n := 100000, cfg.batches()
	if cfg.Quick {
		size = 10000
	}
	p := mustProfile("wiki")
	p.WarmupEdges = 0
	t := Table{
		Title:   fmt.Sprintf("D5 — data structure comparison on wiki@%d", size),
		Columns: []string{"configuration", "ingest time (1 core)", "search comparisons"},
	}

	batches := gen.Batches(p, size, n)
	var asCmp, uscCmp int64
	asTime := func() time.Duration {
		start := time.Now()
		s := graph.NewAdjacencyStore(p.Vertices)
		eng := &update.Baseline{Cfg: update.Config{Workers: 1}}
		for _, b := range batches {
			st := eng.Apply(s, b)
			asCmp += st.Comparisons
		}
		return time.Since(start)
	}()
	dahTime := func() time.Duration {
		start := time.Now()
		s := graph.NewDAHStore(p.Vertices)
		for _, b := range batches {
			for _, e := range b.Edges {
				if e.Delete {
					s.DeleteEdge(e.Src, e.Dst)
				} else {
					s.InsertEdge(e)
				}
			}
		}
		return time.Since(start)
	}()
	uscTime := func() time.Duration {
		start := time.Now()
		s := graph.NewAdjacencyStore(p.Vertices)
		eng := &update.Reordered{Cfg: update.Config{Workers: 1}, USC: true}
		for _, b := range batches {
			st := eng.Apply(s, b)
			uscCmp += st.Comparisons + st.HashOps
		}
		return time.Since(start)
	}()

	t.AddRow("AS (adjacency list, baseline)", asTime.String(), fi(asCmp))
	t.AddRow("DAH (degree-aware hashing)", dahTime.String(), "O(1) probes per edge")
	t.AddRow("AS + RO + USC", uscTime.String(), fi(uscCmp)+" (incl. hash ops)")
	t.Notes = append(t.Notes,
		"paper (wiki-100K, multicore): DAH 1.95x over AS; AS+RO 1.8x; AS+RO+USC 2.1x — reordering+USC lets one data structure match the specialized one",
		"on this single-core host the wall times exclude lock effects and RO's sort is a pure cost; the search-comparison column shows the work-efficiency that drives the paper's multicore result")
	return []Table{t}
}
