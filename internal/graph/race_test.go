//go:build race

package graph_test

// raceEnabled reports that the race detector is on; its
// instrumentation allocates, so allocation gates skip under it.
const raceEnabled = true
