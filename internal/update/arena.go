package update

// BatchArena is the per-engine scratch for the epoch engine's
// reordering: a reusable reorder.Reordered (the two sorted edge views,
// their vertex runs and the counting-sort offsets) plus the run-length
// buffer ABR's instrumentation reads. The stable counting sort reuses
// its buffers, so — the property the lock-free path is gated on —
// steady-state reordering allocates nothing per edge. Buffers grow on
// demand and are retained across batches; the arena belongs to one
// engine and is serialized by the store's writer lock.

import "streamgraph/internal/reorder"

// BatchArena holds the reusable reorder scratch. The zero value is
// ready to use.
type BatchArena struct {
	reorder.Reordered
	runLens []int
}

// DstRunLens fills and returns the arena's run-length buffer for the
// destination view — ABR's reordered-path instrumentation input. The
// returned slice aliases the arena and is valid until the next batch.
func (a *BatchArena) DstRunLens() []int {
	if cap(a.runLens) < len(a.DstRuns) {
		a.runLens = make([]int, len(a.DstRuns))
	}
	a.runLens = a.runLens[:len(a.DstRuns)]
	for i, r := range a.DstRuns {
		a.runLens[i] = r.Len()
	}
	return a.runLens
}
