package main

import (
	"testing"
	"time"
)

func TestFreshnessAttribution(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	// Batch i is due at 10i ms and acknowledged 5 ms later.
	n := 6
	due, ack := make([]time.Time, n), make([]time.Time, n)
	for i := range due {
		due[i], ack[i] = at(10*i), at(10*i+5)
	}
	// OCA deferred batch 0 and ran it with batch 1; deferred 2 and 3 and
	// ran them with 4; deferred 5, which only the flush at 100 ms covers.
	computed := []int{0, 2, 0, 0, 3, 0}
	want := []float64{15, 5, 25, 15, 5, 50}
	got, uncovered := freshness(due, ack, computed, at(100))
	if uncovered != 0 {
		t.Errorf("uncovered = %d, want 0", uncovered)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("fresh[%d] = %g ms, want %g", i, got[i], want[i])
		}
	}

	// Without a flush the last batch is not covered, and is left out.
	got, uncovered = freshness(due, ack, computed, time.Time{})
	if uncovered != 1 || got[5] != -1 || len(coveredOnly(got)) != 5 {
		t.Errorf("without flush: fresh %v, uncovered %d", got, uncovered)
	}

	// A batch counts as fresh at the first round that covers it, not a
	// later one.
	got, _ = freshness(due[:3], ack[:3], []int{1, 1, 3}, time.Time{})
	if got[0] != 5 || got[1] != 5 || got[2] != 5 {
		t.Errorf("first cover: fresh %v, want all 5 ms", got)
	}
}
