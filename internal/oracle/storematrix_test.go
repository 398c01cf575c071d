package oracle

import (
	"os"
	"testing"

	"streamgraph/internal/gen"
)

// storeAxes are the STORE values of the CI store-matrix job
// (.github/workflows/ci.yml); keep the two lists in step.
var storeAxes = []string{"adjacency", "dah", "tango", "epoch"}

// TestStoreMatrixDifferential is the CI store-matrix job's entry
// point: STORE=<adjacency|dah|tango|epoch> selects the slice of the
// differential matrix backed by that store and replays every
// adversarial family through it. With STORE unset it runs the full
// matrix on a reduced stream (the full-size sweep is
// TestDifferentialMatrix).
func TestStoreMatrixDifferential(t *testing.T) {
	store := os.Getenv("STORE")
	verts, batchSize, batches := 128, 150, 6
	if store != "" {
		verts, batchSize, batches = 512, 300, 8
	}
	targets := MatrixForStore(verts, 3, store)
	if len(targets) == 0 {
		t.Fatalf("MatrixForStore(%q) selected no targets", store)
	}
	t.Logf("STORE=%q -> %d targets: %v", store, len(targets), Names(targets))
	for _, kind := range gen.AdvKinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			spec := gen.AdvSpec{Kind: kind, Seed: 1, Vertices: verts, BatchSize: batchSize, Batches: batches}
			err := RunStream(spec.Generate(), MatrixForStore(verts, 3, store), Options{
				Context: spec.String(),
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestStoreAxesCoverMatrix: the CI store-matrix axes together select
// every Matrix target exactly once, so removing an axis or adding a
// target no axis claims cannot leave a target unchecked in CI.
func TestStoreAxesCoverMatrix(t *testing.T) {
	seen := make(map[string][]string)
	for _, axis := range storeAxes {
		for _, name := range Names(MatrixForStore(16, 1, axis)) {
			seen[name] = append(seen[name], axis)
		}
	}
	all := Names(Matrix(16, 1))
	for _, name := range all {
		if axes := seen[name]; len(axes) != 1 {
			t.Errorf("target %s selected by axes %v, want exactly one", name, axes)
		}
	}
	if len(seen) != len(all) {
		t.Errorf("axes select %d distinct targets, Matrix has %d", len(seen), len(all))
	}
}
