//go:build !race

package update_test

// raceEnabled reports that the race detector is on; its
// instrumentation allocates, so allocation gates skip under it.
const raceEnabled = false
