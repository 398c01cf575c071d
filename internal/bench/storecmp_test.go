package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"streamgraph/internal/gen"
)

// TestStoreBaselineTangoWins pins the headline claim of the committed
// store head-to-head: on the skewed and mixed adversarial workloads —
// the profiles the tiered representation exists for — tango's
// update-phase ns/edge beats every fixed existing store. The committed
// baseline is uniformly doubled, which preserves relative standing, so
// the comparison is meaningful. If a store change flips a ranking,
// regenerate the baseline deliberately:
//
//	go run ./cmd/sgbench -store-experiment -quick -store-write-baseline \
//	    -store-out BENCH_store.json
func TestStoreBaselineTangoWins(t *testing.T) {
	res, err := LoadTrajectory(filepath.Join("..", "..", "BENCH_store.json"))
	if err != nil {
		t.Fatalf("committed BENCH_store.json unreadable: %v", err)
	}
	if res.SchemaVersion != TrajectorySchemaVersion {
		t.Fatalf("BENCH_store.json schema v%d, want v%d", res.SchemaVersion, TrajectorySchemaVersion)
	}
	update := map[string]map[string]float64{} // workload -> store -> ns/edge
	for _, e := range res.Entries {
		if update[e.Workload] == nil {
			update[e.Workload] = map[string]float64{}
		}
		update[e.Workload][e.Store] = e.Phases[PhaseUpdate].NsPerEdge
	}
	for _, wl := range []string{gen.AdvSkewed.String(), gen.AdvMixed.String()} {
		cells := update[wl]
		tango, ok := cells["tango"]
		if !ok || tango <= 0 {
			t.Fatalf("workload %s: no tango entry in BENCH_store.json", wl)
		}
		for _, existing := range []string{"adjacency", "dah"} {
			cost, ok := cells[existing]
			if !ok || cost <= 0 {
				t.Fatalf("workload %s: no %s entry in BENCH_store.json", wl, existing)
			}
			if tango >= cost {
				t.Errorf("workload %s: tango %.1f ns/edge does not beat %s %.1f ns/edge",
					wl, tango, existing, cost)
			}
		}
	}
}

func TestValidateBaseline(t *testing.T) {
	dir := t.TempDir()

	missing := filepath.Join(dir, "nope.json")
	if err := ValidateBaseline(missing); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("missing baseline: %v", err)
	}

	corrupt := filepath.Join(dir, "corrupt.json")
	os.WriteFile(corrupt, []byte("{not json"), 0o644)
	if err := ValidateBaseline(corrupt); err == nil || !strings.Contains(err.Error(), "not valid") {
		t.Fatalf("corrupt baseline: %v", err)
	}

	stale := filepath.Join(dir, "stale.json")
	res := trajResult(map[string]TrajectoryPhase{PhaseUpdate: trajPhase(10)})
	res.SchemaVersion = TrajectorySchemaVersion + 1
	if err := WriteTrajectory(stale, res); err != nil {
		t.Fatal(err)
	}
	if err := ValidateBaseline(stale); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("schema-mismatched baseline: %v", err)
	}

	empty := filepath.Join(dir, "empty.json")
	if err := WriteTrajectory(empty, TrajectoryResult{SchemaVersion: TrajectorySchemaVersion}); err != nil {
		t.Fatal(err)
	}
	if err := ValidateBaseline(empty); err == nil || !strings.Contains(err.Error(), "no entries") {
		t.Fatalf("empty baseline: %v", err)
	}

	good := filepath.Join(dir, "good.json")
	if err := WriteTrajectory(good, trajResult(map[string]TrajectoryPhase{PhaseUpdate: trajPhase(10)})); err != nil {
		t.Fatal(err)
	}
	if err := ValidateBaseline(good); err != nil {
		t.Fatalf("good baseline rejected: %v", err)
	}

	// The committed gate baselines themselves must validate.
	for _, p := range []string{"BENCH_baseline.json", "BENCH_store.json", "BENCH_lockfree.json"} {
		if err := ValidateBaseline(filepath.Join("..", "..", p)); err != nil {
			t.Errorf("committed %s: %v", p, err)
		}
	}
}

// TestRunStoreCompareCell proves the head-to-head measurement wires end
// to end on one tiny cell per store.
func TestRunStoreCompareCell(t *testing.T) {
	if testing.Short() {
		t.Skip("store cell run in -short mode")
	}
	spec := gen.AdvSpec{Kind: gen.AdvSkewed, Seed: 1, Vertices: 2000, BatchSize: 2000, Batches: 2}
	for _, ms := range storeCmpStores {
		entry, err := storeRunMutable(spec, ms.mk)
		if err != nil {
			t.Fatal(err)
		}
		if entry.Edges == 0 || entry.Phases[PhaseUpdate].Ns <= 0 {
			t.Fatalf("%s: update phase not measured: %+v", ms.store, entry)
		}
	}
}
