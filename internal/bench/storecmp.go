package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"runtime"
	"time"

	"streamgraph/internal/gen"
	"streamgraph/internal/graph"
	"streamgraph/internal/update"
)

// The store head-to-head (sgbench -store-experiment) races every graph
// store over the adversarial workload families through the sequential
// Mutable ingestion path — the path all stores share. It reuses
// the trajectory schema (TrajectoryResult, version-gated by the same
// comparator), so BENCH_store.json is gated in CI exactly like the
// engine trajectory: per-phase ns/edge against a committed, doubled
// baseline. Compute is deliberately absent: this experiment isolates
// the update phase, the quantity the tiered representations compete on.

// storeCmpEngine labels every head-to-head cell: all stores ingest
// through the same sequential Mutable path, so the store axis is the
// only variable.
const storeCmpEngine = "mutable"

// storeCmpStores are the stores raced in the head-to-head.
var storeCmpStores = []struct {
	store string
	mk    func(n int) graph.Mutable
}{
	{"adjacency", func(n int) graph.Mutable { return graph.NewAdjacencyStore(n) }},
	{"dah", func(n int) graph.Mutable { return graph.NewDAHStore(n) }},
	{"tango", func(n int) graph.Mutable { return graph.NewTangoStore(n) }},
}

// RunStoreCompare measures the store × adversarial-workload matrix.
// A non-nil error marks a partial run; the report must then not be
// written (same contract as RunTrajectory).
func RunStoreCompare(quick bool) (TrajectoryResult, error) {
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
		for _, ms := range storeCmpStores {
			ms := ms
			entry, err := trajBest(spec.Kind.String(), storeCmpEngine, ms.store, func() (TrajectoryEntry, error) {
				return storeRunMutable(spec, ms.mk)
			})
			if err != nil {
				return res, err
			}
			res.Entries = append(res.Entries, entry)
		}
	}
	return res, nil
}

// storeRunMutable times pure sequential ingestion on one store; no
// compute, no observer — the update phase is the whole measurement.
func storeRunMutable(spec gen.AdvSpec, mk func(n int) graph.Mutable) (TrajectoryEntry, error) {
	batchList := spec.Generate()
	st := mk(spec.Vertices)
	var edges, updateNs int64
	for _, b := range batchList {
		start := time.Now()
		update.ApplyMutable(st, b)
		updateNs += time.Since(start).Nanoseconds()
		edges += int64(len(b.Edges))
	}
	return trajEntry(edges, 0, updateNs, 0), nil
}

// ValidateBaseline checks that a committed BENCH_*.json gate baseline
// exists, parses, and matches the current schema version, so the bench
// gates fail fast with an attributable message instead of minutes into
// a measurement run. The three failure modes get distinct messages:
// missing file, unreadable/corrupt JSON, schema mismatch.
func ValidateBaseline(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("baseline %s missing; regenerate it with the matching -write-baseline flag", path)
		}
		return fmt.Errorf("baseline %s unreadable: %w", path, err)
	}
	var res TrajectoryResult
	if err := json.Unmarshal(data, &res); err != nil {
		return fmt.Errorf("baseline %s is not valid baseline JSON: %w", path, err)
	}
	if res.SchemaVersion != TrajectorySchemaVersion {
		return fmt.Errorf("baseline %s is schema v%d, current is v%d; regenerate it with the matching -write-baseline flag",
			path, res.SchemaVersion, TrajectorySchemaVersion)
	}
	if len(res.Entries) == 0 {
		return fmt.Errorf("baseline %s has no entries; regenerate it with the matching -write-baseline flag", path)
	}
	return nil
}
