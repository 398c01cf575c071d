package oracle

import (
	"streamgraph/internal/graph"
	"streamgraph/internal/pipeline"
	"streamgraph/internal/update"
)

// Target is one system-under-test in a differential run: a way of
// applying batches plus the store whose state must match the model.
type Target struct {
	// Name identifies the combination in divergence reports, e.g.
	// "baseline/adjlist" or "pipeline/abr+usc".
	Name string
	// Apply ingests one batch.
	Apply func(b *graph.Batch)
	// Store returns the current graph state for verification.
	Store func() graph.Store
	// Adj returns the underlying adjacency store when the target
	// maintains latest_bid semantics (engine and pipeline paths);
	// nil for Mutable-path stores.
	Adj func() *graph.AdjacencyStore
	// Bids returns a latest_bid reader for targets that maintain the
	// field on a non-adjacency store (the epoch paths); nil otherwise.
	// Targets with Adj set do not need Bids.
	Bids func() BIDReader
	// Finish flushes any deferred work (pipeline targets).
	Finish func()
}

// EngineTarget runs one update engine over a fresh adjacency store
// pre-sized for numVerts.
func EngineTarget(name string, eng update.Engine, numVerts int) *Target {
	st := graph.NewAdjacencyStore(numVerts)
	return &Target{
		Name:  name,
		Apply: func(b *graph.Batch) { eng.Apply(st, b) },
		Store: func() graph.Store { return st },
		Adj:   func() *graph.AdjacencyStore { return st },
	}
}

// EpochTarget runs the lock-free epoch engine over a fresh epoch
// store. With snapshots=false the harness verifies against the live
// store (quiescent between batches); with snapshots=true every Apply
// re-pins a fresh epoch snapshot and all verification — graph state,
// compute engines, mirror invariant — reads through it, exercising the
// wait-free read path end to end. Poisoning is always on so a
// use-after-reclaim read corrupts the differential comparison loudly.
func EpochTarget(name string, workers, numVerts int, snapshots bool) *Target {
	st := graph.NewEpochStore(numVerts, graph.EpochOptions{Poison: true})
	eng := &update.EpochEngine{Cfg: update.Config{Workers: workers}}
	t := &Target{
		Name:  name,
		Apply: func(b *graph.Batch) { eng.Apply(st, b) },
		Store: func() graph.Store { return st },
		Bids:  func() BIDReader { return st },
	}
	if snapshots {
		var snap *graph.EpochSnapshot
		t.Apply = func(b *graph.Batch) {
			eng.Apply(st, b)
			if snap != nil {
				snap.Release()
			}
			snap = st.Snapshot()
		}
		t.Store = func() graph.Store {
			if snap != nil {
				return snap
			}
			return st
		}
		t.Finish = func() {
			if snap != nil {
				snap.Release()
				snap = nil
			}
		}
	}
	return t
}

// MutableTarget replays batches sequentially through the
// coarse-grained Mutable interface of any store.
func MutableTarget(name string, st graph.Mutable) *Target {
	return &Target{
		Name:  name,
		Apply: func(b *graph.Batch) { update.ApplyMutable(st, b) },
		Store: func() graph.Store { return st },
	}
}

// PipelineTarget runs batches through a full pipeline Runner. The
// config's Compute should be nil in differential runs — the harness
// drives compute equivalence itself, with one engine instance per
// target.
func PipelineTarget(name string, cfg pipeline.Config, numVerts int) *Target {
	r := pipeline.NewRunner(cfg, numVerts)
	return &Target{
		Name:   name,
		Apply:  func(b *graph.Batch) { r.ProcessBatch(b) },
		Store:  func() graph.Store { return r.Store() },
		Adj:    func() *graph.AdjacencyStore { return r.Store() },
		Finish: func() { r.Finish() },
	}
}

// FaultedPipelineTarget runs batches through a pipeline Runner behind
// its panic isolation boundary, retrying each batch until it passes —
// exactly a serving client's loop. cfg should carry a fault.Injector
// (and optionally a Shed config with pressure as its source) whose
// schedule leaves retries passable (every > 1). Retries are bounded so
// a schedule that can never pass fails the differential run loudly
// instead of spinning.
func FaultedPipelineTarget(name string, cfg pipeline.Config, numVerts int, pressure func() float64) *Target {
	r := pipeline.NewRunner(cfg, numVerts)
	if pressure != nil {
		r.SetPressure(pressure)
	}
	apply := func(b *graph.Batch) {
		for attempt := 0; ; attempt++ {
			_, err := r.ProcessBatchIsolated(b)
			if err == nil {
				return
			}
			if attempt >= 64 {
				panic("oracle: faulted target " + name + " cannot pass batch: " + err.Error())
			}
		}
	}
	return &Target{
		Name:  name,
		Apply: apply,
		Store: func() graph.Store { return r.Store() },
		Adj:   func() *graph.AdjacencyStore { return r.Store() },
		Finish: func() {
			for attempt := 0; ; attempt++ {
				if err := r.FinishIsolated(); err == nil {
					return
				} else if attempt >= 64 {
					panic("oracle: faulted target " + name + " cannot finish: " + err.Error())
				}
			}
		},
	}
}

// Matrix returns fresh targets covering every engine × store
// combination plus the adaptive pipeline paths:
//
//   - adjacency list × {baseline, baseline(1 worker), RO, RO+USC,
//     RO+USC with forced coalescing, sequential Mutable};
//   - DAH, tango and epoch stores × sequential Mutable (the
//     batch engines are adjacency-specific by design; the Mutable
//     path is how those stores ingest batches);
//   - the epoch store × the lock-free epoch engine, once verified
//     against the live store and once entirely through pinned epoch
//     snapshots;
//   - pipeline × {ABR+USC adaptive, PerfectABR oracle decisions}.
//
// Every store is pre-sized for numVerts; streams must keep vertex IDs
// below numVerts so all representations share one vertex space.
func Matrix(numVerts, workers int) []*Target {
	cfg := update.Config{Workers: workers}
	forced := cfg
	forced.MinCoalesceRun = 1
	return []*Target{
		EngineTarget("baseline/adjlist", &update.Baseline{Cfg: cfg}, numVerts),
		EngineTarget("baseline-1w/adjlist", &update.Baseline{Cfg: update.Config{Workers: 1}}, numVerts),
		EngineTarget("ro/adjlist", &update.Reordered{Cfg: cfg}, numVerts),
		EngineTarget("ro+usc/adjlist", &update.Reordered{Cfg: cfg, USC: true}, numVerts),
		EngineTarget("ro+usc-forced/adjlist", &update.Reordered{Cfg: forced, USC: true}, numVerts),
		MutableTarget("mutable/adjlist", graph.NewAdjacencyStore(numVerts)),
		MutableTarget("mutable/dah", graph.NewDAHStore(numVerts)),
		MutableTarget("mutable/tango", graph.NewTangoStore(numVerts)),
		MutableTarget("mutable/epoch", graph.NewEpochStore(numVerts, graph.EpochOptions{Poison: true})),
		EpochTarget("epoch/live", workers, numVerts, false),
		EpochTarget("epoch/snapshot", workers, numVerts, true),
		PipelineTarget("pipeline/abr+usc",
			pipeline.Config{Policy: pipeline.ABRUSC, Workers: workers}, numVerts),
		PipelineTarget("pipeline/perfect-abr",
			pipeline.Config{
				Policy:  pipeline.PerfectABR,
				Workers: workers,
				Oracle:  func(b *graph.Batch) bool { return b.ID%2 == 0 },
			}, numVerts),
	}
}

// MatrixForStore returns the slice of the differential matrix backed
// by the named store — the CI store-matrix job's STORE=<name> axis.
// The adjacency axis carries every engine and pipeline path (they are
// adjacency-specific by design). An empty name returns the full Matrix; an unknown
// name returns nil.
func MatrixForStore(numVerts, workers int, store string) []*Target {
	if store == "" {
		return Matrix(numVerts, workers)
	}
	var out []*Target
	for _, t := range Matrix(numVerts, workers) {
		keep := false
		switch store {
		case "adjacency":
			keep = t.Name == "mutable/adjlist" || t.Adj != nil
		case "dah":
			keep = t.Name == "mutable/dah"
		case "tango":
			keep = t.Name == "mutable/tango"
		case "epoch":
			keep = t.Name == "mutable/epoch" || t.Name == "epoch/live" || t.Name == "epoch/snapshot"
		}
		if keep {
			out = append(out, t)
		}
	}
	return out
}

// Names returns the target names, for logging.
func Names(ts []*Target) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.Name
	}
	return out
}
