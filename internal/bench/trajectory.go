package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"

	"streamgraph/internal/compute"
	"streamgraph/internal/gen"
	"streamgraph/internal/graph"
	"streamgraph/internal/obs"
	"streamgraph/internal/pipeline"
	"streamgraph/internal/update"
)

// The benchmark trajectory is the repo's persistent performance
// record: sgbench -experiment runs the adversarial generator matrix
// across engines × stores, derives per-phase (reorder/update/compute)
// breakdowns from the span layer, and writes a schema-versioned JSON
// report. The first committed point is BENCH_baseline.json at the
// repo root; scripts/check.sh and CI gate subsequent runs against it
// so the upcoming scale/speed arc (GraphTango-class store, lock-free
// hot path) shows up as movement along the trajectory instead of
// anecdotes. Phase costs are gated as ns/edge — scale-tolerant, so a
// quick run compares against a quick baseline shape meaningfully.

// TrajectorySchemaVersion identifies the BENCH_*.json layout. Bump it
// when entries or phases change shape; the comparator refuses
// mismatched versions rather than misreading them.
const TrajectorySchemaVersion = 1

// Trajectory phase names, derived from the span stages.
const (
	PhaseReorder = "reorder"
	PhaseUpdate  = "update"
	PhaseCompute = "compute"
)

// TrajectoryPhase is one phase's cost within one matrix cell.
type TrajectoryPhase struct {
	// Ns is the total wall time the phase consumed across the run.
	Ns int64 `json:"ns"`
	// NsPerEdge is Ns divided by the edges ingested — the gated
	// quantity, comparable across workload sizes.
	NsPerEdge float64 `json:"nsPerEdge"`
}

// TrajectoryEntry is one cell of the workload × engine × store
// matrix.
type TrajectoryEntry struct {
	Workload string `json:"workload"`
	Engine   string `json:"engine"`
	Store    string `json:"store"`
	Edges    int64  `json:"edges"`
	// Phases maps phase name → cost. The update phase excludes the
	// reorder time nested inside it, so the three phases partition the
	// pipeline's batch wall time.
	Phases map[string]TrajectoryPhase `json:"phases"`
}

// Key identifies the entry across runs.
func (e TrajectoryEntry) Key() string {
	return e.Workload + "/" + e.Engine + "/" + e.Store
}

// TrajectoryResult is the full experiment report (BENCH_*.json).
type TrajectoryResult struct {
	SchemaVersion int               `json:"schemaVersion"`
	GoVersion     string            `json:"goVersion"`
	GOOS          string            `json:"goos"`
	GOARCH        string            `json:"goarch"`
	NumCPU        int               `json:"numCpu"`
	Quick         bool              `json:"quick"`
	Vertices      int               `json:"vertices"`
	BatchSize     int               `json:"batchSize"`
	Batches       int               `json:"batches"`
	Repeats       int               `json:"repeats"`
	Entries       []TrajectoryEntry `json:"entries"`
}

// Trajectory workload shapes. Quick keeps the CI job inside a couple
// of minutes; full is the dev-machine shape.
const (
	trajQuickVertices = 20000
	trajQuickBatch    = 20000
	trajQuickBatches  = 6
	trajFullVertices  = 50000
	trajFullBatch     = 100000
	trajFullBatches   = 8
	trajSeed          = 1
	trajRepeats       = 2
)

// trajPipelineCell is one pipeline-policy cell of the engine matrix
// (all run on the adjacency store, the batch engines' target).
var trajPipelineCells = []struct {
	engine string
	policy pipeline.Policy
}{
	{"baseline", pipeline.Baseline},
	{"ro", pipeline.AlwaysRO},
	{"ro+usc", pipeline.AlwaysROUSC},
	{"abr+usc", pipeline.ABRUSC},
}

// trajMutableStores are the comparison stores reached through the
// sequential Mutable path (the batch engines do not target them).
var trajMutableStores = []struct {
	store string
	mk    func(n int) graph.Mutable
}{
	{"dah", func(n int) graph.Mutable { return graph.NewDAHStore(n) }},
}

// RunTrajectory measures the full matrix. A non-nil error marks a
// partial run (a cell panicked or measured zero edges); the report
// must then not be written, for the same reason as RunCISmoke.
func RunTrajectory(quick bool, workers int) (TrajectoryResult, error) {
	vertices, batchSize, batches := trajFullVertices, trajFullBatch, trajFullBatches
	if quick {
		vertices, batchSize, batches = trajQuickVertices, trajQuickBatch, trajQuickBatches
	}
	res := TrajectoryResult{
		SchemaVersion: TrajectorySchemaVersion,
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		NumCPU:        runtime.NumCPU(),
		Quick:         quick,
		Vertices:      vertices,
		BatchSize:     batchSize,
		Batches:       batches,
		Repeats:       trajRepeats,
	}
	for _, kind := range gen.AdvKinds() {
		spec := gen.AdvSpec{Kind: kind, Seed: trajSeed, Vertices: vertices,
			BatchSize: batchSize, Batches: batches}
		for _, cell := range trajPipelineCells {
			entry, err := trajBest(spec.Kind.String(), cell.engine, "adjacency", func() (TrajectoryEntry, error) {
				return trajRunPipeline(spec, cell.policy, workers)
			})
			if err != nil {
				return res, err
			}
			res.Entries = append(res.Entries, entry)
		}
		for _, ms := range trajMutableStores {
			ms := ms
			entry, err := trajBest(spec.Kind.String(), "mutable", ms.store, func() (TrajectoryEntry, error) {
				return trajRunMutable(spec, ms.mk, workers)
			})
			if err != nil {
				return res, err
			}
			res.Entries = append(res.Entries, entry)
		}
	}
	return res, nil
}

// trajBest runs one cell trajRepeats times and keeps the repeat with
// the lowest total phase time, damping scheduler noise.
func trajBest(workload, engine, store string, run func() (TrajectoryEntry, error)) (TrajectoryEntry, error) {
	var best TrajectoryEntry
	for rep := 0; rep < trajRepeats; rep++ {
		entry, err := trajGuard(run)
		if err != nil {
			return best, fmt.Errorf("cell %s/%s/%s (repeat %d): %w", workload, engine, store, rep, err)
		}
		if entry.Edges == 0 {
			return best, fmt.Errorf("cell %s/%s/%s (repeat %d): zero edges; measurement invalid",
				workload, engine, store, rep)
		}
		entry.Workload, entry.Engine, entry.Store = workload, engine, store
		if rep == 0 || trajTotalNs(entry) < trajTotalNs(best) {
			best = entry
		}
	}
	return best, nil
}

func trajGuard(run func() (TrajectoryEntry, error)) (entry TrajectoryEntry, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return run()
}

func trajTotalNs(e TrajectoryEntry) int64 {
	var t int64
	for _, p := range e.Phases {
		t += p.Ns
	}
	return t
}

// trajRunPipeline measures one policy over one generated stream and
// derives the phase breakdown from the span trees the pipeline emits:
// reorder is the engine-reported sort span, update is the update span
// minus that nested reorder, compute is the computation-round span.
func trajRunPipeline(spec gen.AdvSpec, policy pipeline.Policy, workers int) (TrajectoryEntry, error) {
	batchList := spec.Generate()
	o := obs.New(obs.Options{TraceCapacity: spec.Batches + 1, SpanCapacity: (spec.Batches + 1) * 8})
	r := pipeline.NewRunner(pipeline.Config{
		Policy:  policy,
		Workers: workers,
		Compute: &compute.PageRank{Incremental: true, Workers: workers},
		Obs:     o,
	}, spec.Vertices)
	var edges int64
	for _, b := range batchList {
		bm := r.ProcessBatch(b)
		edges += bm.Stats.EdgesApplied
	}
	r.Finish()

	var reorderNs, updateNs, computeNs int64
	for _, tr := range o.Traces.Last(0) {
		reorderNs += tr.SpanDur(PhaseReorder).Nanoseconds()
		updateNs += tr.SpanDur(PhaseUpdate).Nanoseconds()
		computeNs += tr.SpanDur(PhaseCompute).Nanoseconds()
	}
	return trajEntry(edges, reorderNs, updateNs-reorderNs, computeNs), nil
}

// trajRunMutable measures the sequential Mutable ingestion path plus
// PageRank on a comparison store, wrapped in manual spans so the same
// span-derived accounting applies.
func trajRunMutable(spec gen.AdvSpec, mk func(n int) graph.Mutable, workers int) (TrajectoryEntry, error) {
	batchList := spec.Generate()
	o := obs.New(obs.Options{TraceCapacity: spec.Batches + 1, SpanCapacity: (spec.Batches + 1) * 4})
	st := mk(spec.Vertices)
	pr := &compute.PageRank{Incremental: true, Workers: workers}
	var edges int64
	for _, b := range batchList {
		tr := o.StartBatch(b.ID, len(b.Edges), "mutable", 0)
		us := tr.StartSpan(PhaseUpdate)
		update.ApplyMutable(st, b)
		us.End()
		cs := tr.StartSpan(PhaseCompute)
		pr.Update(st, b)
		cs.End()
		o.EmitBatch(tr)
		edges += int64(len(b.Edges))
	}

	var updateNs, computeNs int64
	for _, tr := range o.Traces.Last(0) {
		updateNs += tr.SpanDur(PhaseUpdate).Nanoseconds()
		computeNs += tr.SpanDur(PhaseCompute).Nanoseconds()
	}
	return trajEntry(edges, 0, updateNs, computeNs), nil
}

func trajEntry(edges, reorderNs, updateNs, computeNs int64) TrajectoryEntry {
	e := TrajectoryEntry{
		Edges:  edges,
		Phases: make(map[string]TrajectoryPhase, 3),
	}
	for name, ns := range map[string]int64{
		PhaseReorder: reorderNs,
		PhaseUpdate:  updateNs,
		PhaseCompute: computeNs,
	} {
		p := TrajectoryPhase{Ns: ns}
		if edges > 0 {
			p.NsPerEdge = float64(ns) / float64(edges)
		}
		e.Phases[name] = p
	}
	return e
}

// WriteTrajectory writes the report as indented JSON.
func WriteTrajectory(path string, res TrajectoryResult) error {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadTrajectory reads a report or baseline file.
func LoadTrajectory(path string) (TrajectoryResult, error) {
	var res TrajectoryResult
	data, err := os.ReadFile(path)
	if err != nil {
		return res, err
	}
	err = json.Unmarshal(data, &res)
	return res, err
}

// trajNoiseFloorNs is the per-phase total below which the gate does
// not compare: a phase that completes in under 2ms across the whole
// run is dominated by scheduler jitter and timer granularity, and its
// ns/edge ratio is meaningless.
const trajNoiseFloorNs = 2_000_000

// CompareTrajectory gates cur against base: for every matrix cell and
// phase present in the baseline, cur's ns/edge must not exceed the
// baseline's by more than tolerance (fractional, e.g. 0.20). Phases
// under the noise floor in both runs are skipped. Returns one message
// per regression (empty = pass) and an error when the runs are not
// comparable — schema mismatch, or a cell/phase present on one side
// only, so the gate cannot silently narrow. A phase missing from one
// side is tolerated only when the side that has it measured it under
// the noise floor.
func CompareTrajectory(cur, base TrajectoryResult, tolerance float64) ([]string, error) {
	if cur.SchemaVersion != base.SchemaVersion {
		return nil, fmt.Errorf("schema mismatch: run v%d vs baseline v%d; regenerate the baseline with -experiment-write-baseline",
			cur.SchemaVersion, base.SchemaVersion)
	}
	baseBy := make(map[string]TrajectoryEntry, len(base.Entries))
	for _, e := range base.Entries {
		baseBy[e.Key()] = e
	}
	curBy := make(map[string]TrajectoryEntry, len(cur.Entries))
	for _, e := range cur.Entries {
		curBy[e.Key()] = e
	}
	var regressions, missing, dropped []string
	for _, e := range cur.Entries {
		b, ok := baseBy[e.Key()]
		if !ok {
			missing = append(missing, e.Key())
			continue
		}
		for phase, cp := range e.Phases {
			bp, ok := b.Phases[phase]
			if !ok {
				if cp.Ns >= trajNoiseFloorNs {
					missing = append(missing, e.Key()+":"+phase)
				}
				continue
			}
			if cp.Ns < trajNoiseFloorNs && bp.Ns < trajNoiseFloorNs {
				continue
			}
			ceiling := bp.NsPerEdge * (1 + tolerance)
			if cp.NsPerEdge > ceiling {
				regressions = append(regressions, fmt.Sprintf(
					"%s %s: %.1f ns/edge > ceiling %.1f (baseline %.1f, tolerance %.0f%%)",
					e.Key(), phase, cp.NsPerEdge, ceiling, bp.NsPerEdge, tolerance*100))
			}
		}
	}
	for _, b := range base.Entries {
		e, ok := curBy[b.Key()]
		if !ok {
			dropped = append(dropped, b.Key())
			continue
		}
		for phase, bp := range b.Phases {
			if _, ok := e.Phases[phase]; !ok && bp.Ns >= trajNoiseFloorNs {
				dropped = append(dropped, b.Key()+":"+phase)
			}
		}
	}
	sort.Strings(regressions)
	sort.Strings(missing)
	sort.Strings(dropped)
	var errs []error
	if len(missing) > 0 {
		errs = append(errs, fmt.Errorf("baseline has no entry for %v; regenerate it with -experiment-write-baseline", missing))
	}
	if len(dropped) > 0 {
		errs = append(errs, fmt.Errorf("run has no entry for baseline %v; remove them from the baseline only if the cells were deleted on purpose", dropped))
	}
	return regressions, errors.Join(errs...)
}
