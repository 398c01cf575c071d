package bench

import (
	"path/filepath"
	"strings"
	"testing"

	"streamgraph/internal/gen"
)

// trajResult builds a one-entry result with the given per-phase costs.
// Ns values are chosen well above the noise floor unless stated.
func trajResult(phases map[string]TrajectoryPhase) TrajectoryResult {
	return TrajectoryResult{
		SchemaVersion: TrajectorySchemaVersion,
		Entries: []TrajectoryEntry{{
			Workload: "skewed", Engine: "abr+usc", Store: "adjacency",
			Edges: 1000, Phases: phases,
		}},
	}
}

func trajPhase(nsPerEdge float64) TrajectoryPhase {
	return TrajectoryPhase{Ns: trajNoiseFloorNs * 10, NsPerEdge: nsPerEdge}
}

func TestCompareTrajectoryPass(t *testing.T) {
	base := trajResult(map[string]TrajectoryPhase{
		PhaseUpdate:  trajPhase(100),
		PhaseCompute: trajPhase(50),
	})
	cur := trajResult(map[string]TrajectoryPhase{
		PhaseUpdate:  trajPhase(110), // +10%, inside 20% tolerance
		PhaseCompute: trajPhase(45),  // faster is always fine
	})
	regs, err := CompareTrajectory(cur, base, 0.20)
	if err != nil {
		t.Fatalf("CompareTrajectory: %v", err)
	}
	if len(regs) != 0 {
		t.Fatalf("unexpected regressions: %v", regs)
	}
}

func TestCompareTrajectoryRegression(t *testing.T) {
	base := trajResult(map[string]TrajectoryPhase{PhaseUpdate: trajPhase(100)})
	cur := trajResult(map[string]TrajectoryPhase{PhaseUpdate: trajPhase(150)})
	regs, err := CompareTrajectory(cur, base, 0.20)
	if err != nil {
		t.Fatalf("CompareTrajectory: %v", err)
	}
	if len(regs) != 1 {
		t.Fatalf("want 1 regression, got %v", regs)
	}
	if !strings.Contains(regs[0], "skewed/abr+usc/adjacency") || !strings.Contains(regs[0], PhaseUpdate) {
		t.Fatalf("regression message missing cell/phase: %q", regs[0])
	}
}

func TestCompareTrajectoryNoiseFloor(t *testing.T) {
	// Both sides under the noise floor: a 10× ratio blowup is ignored.
	tiny := TrajectoryPhase{Ns: trajNoiseFloorNs / 2, NsPerEdge: 1}
	tinySlow := TrajectoryPhase{Ns: trajNoiseFloorNs / 2, NsPerEdge: 10}
	base := trajResult(map[string]TrajectoryPhase{PhaseReorder: tiny})
	cur := trajResult(map[string]TrajectoryPhase{PhaseReorder: tinySlow})
	regs, err := CompareTrajectory(cur, base, 0.20)
	if err != nil {
		t.Fatalf("CompareTrajectory: %v", err)
	}
	if len(regs) != 0 {
		t.Fatalf("noise-floor phases must not gate, got %v", regs)
	}

	// Current side above the floor against a sub-floor baseline: gates.
	cur = trajResult(map[string]TrajectoryPhase{PhaseReorder: trajPhase(10)})
	regs, err = CompareTrajectory(cur, base, 0.20)
	if err != nil {
		t.Fatalf("CompareTrajectory: %v", err)
	}
	if len(regs) != 1 {
		t.Fatalf("above-floor run vs sub-floor baseline must gate, got %v", regs)
	}
}

func TestCompareTrajectoryMissingEntry(t *testing.T) {
	base := TrajectoryResult{SchemaVersion: TrajectorySchemaVersion}
	cur := trajResult(map[string]TrajectoryPhase{PhaseUpdate: trajPhase(100)})
	_, err := CompareTrajectory(cur, base, 0.20)
	if err == nil || !strings.Contains(err.Error(), "no entry") {
		t.Fatalf("missing baseline entry must error, got %v", err)
	}
}

// TestCompareTrajectoryDroppedEntry: a baseline cell or above-floor
// phase the run no longer measures errors, so deleting a cell cannot
// narrow the gate unseen.
func TestCompareTrajectoryDroppedEntry(t *testing.T) {
	base := trajResult(map[string]TrajectoryPhase{PhaseUpdate: trajPhase(100)})
	gone := base.Entries[0]
	gone.Store = "retired"
	base.Entries = append(base.Entries, gone)
	cur := trajResult(map[string]TrajectoryPhase{PhaseUpdate: trajPhase(100)})
	_, err := CompareTrajectory(cur, base, 0.20)
	if err == nil || !strings.Contains(err.Error(), "run has no entry") || !strings.Contains(err.Error(), "skewed/abr+usc/retired") {
		t.Fatalf("baseline cell missing from the run must error, got %v", err)
	}

	base = trajResult(map[string]TrajectoryPhase{
		PhaseUpdate:  trajPhase(100),
		PhaseCompute: trajPhase(50), // above floor, absent from the run
	})
	_, err = CompareTrajectory(cur, base, 0.20)
	if err == nil || !strings.Contains(err.Error(), "run has no entry") || !strings.Contains(err.Error(), PhaseCompute) {
		t.Fatalf("baseline phase missing from the run must error, got %v", err)
	}

	// A sub-floor baseline phase the run lacks carries no signal.
	base.Entries[0].Phases[PhaseCompute] = TrajectoryPhase{Ns: 10, NsPerEdge: 0.1}
	if _, err := CompareTrajectory(cur, base, 0.20); err != nil {
		t.Fatalf("sub-floor baseline-only phase should not error: %v", err)
	}
}

func TestCompareTrajectoryMissingPhase(t *testing.T) {
	base := trajResult(map[string]TrajectoryPhase{PhaseUpdate: trajPhase(100)})
	cur := trajResult(map[string]TrajectoryPhase{
		PhaseUpdate:  trajPhase(100),
		PhaseCompute: trajPhase(50), // above floor, absent from baseline
	})
	_, err := CompareTrajectory(cur, base, 0.20)
	if err == nil || !strings.Contains(err.Error(), PhaseCompute) {
		t.Fatalf("missing baseline phase must error, got %v", err)
	}

	// A sub-floor extra phase is tolerated: it carries no signal.
	cur.Entries[0].Phases[PhaseCompute] = TrajectoryPhase{Ns: 10, NsPerEdge: 0.1}
	if _, err := CompareTrajectory(cur, base, 0.20); err != nil {
		t.Fatalf("sub-floor extra phase should not error: %v", err)
	}
}

func TestCompareTrajectorySchemaMismatch(t *testing.T) {
	base := trajResult(nil)
	base.SchemaVersion = TrajectorySchemaVersion + 1
	cur := trajResult(nil)
	_, err := CompareTrajectory(cur, base, 0.20)
	if err == nil || !strings.Contains(err.Error(), "schema mismatch") {
		t.Fatalf("schema mismatch must error, got %v", err)
	}
}

func TestTrajectoryRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "traj.json")
	res := trajResult(map[string]TrajectoryPhase{PhaseUpdate: trajPhase(42)})
	res.GoVersion = "go-test"
	if err := WriteTrajectory(path, res); err != nil {
		t.Fatalf("WriteTrajectory: %v", err)
	}
	got, err := LoadTrajectory(path)
	if err != nil {
		t.Fatalf("LoadTrajectory: %v", err)
	}
	if got.SchemaVersion != res.SchemaVersion || got.GoVersion != "go-test" ||
		len(got.Entries) != 1 || got.Entries[0].Phases[PhaseUpdate].NsPerEdge != 42 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestRunTrajectoryQuickCell(t *testing.T) {
	// Running the full matrix is sgbench's job; here a single tiny cell
	// proves the span-derived accounting wires end to end.
	if testing.Short() {
		t.Skip("trajectory cell run in -short mode")
	}
	spec := gen.AdvSpec{Kind: gen.AdvKinds()[0], Seed: 1, Vertices: 2000, BatchSize: 2000, Batches: 2}
	entry, err := trajRunPipeline(spec, trajPipelineCells[3].policy, 2)
	if err != nil {
		t.Fatalf("trajRunPipeline: %v", err)
	}
	if entry.Edges == 0 {
		t.Fatal("no edges measured")
	}
	up := entry.Phases[PhaseUpdate]
	if up.Ns <= 0 || up.NsPerEdge <= 0 {
		t.Fatalf("update phase not measured: %+v", entry.Phases)
	}
	if entry.Phases[PhaseCompute].Ns <= 0 {
		t.Fatalf("compute phase not measured: %+v", entry.Phases)
	}
}
