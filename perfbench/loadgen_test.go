package main

import (
	"context"
	"testing"
	"time"
)

func TestOpenLoopTimesFromDueUnderStall(t *testing.T) {
	const interval = 10 * time.Millisecond
	const stall = 150 * time.Millisecond
	start := time.Now().Add(5 * time.Millisecond)
	recs := openLoop(context.Background(), start, interval, 6, func(i int) {
		if i == 1 {
			time.Sleep(stall) // the system stalls on request 1
		}
	})
	if len(recs) != 6 {
		t.Fatalf("%d records, want 6", len(recs))
	}
	for i, r := range recs {
		if want := start.Add(time.Duration(i) * interval); !r.due.Equal(want) {
			t.Errorf("request %d due %v after start, want %v", i, r.due.Sub(start), want.Sub(start))
		}
	}
	// Requests 2..5 fell due during the stall; each waited for it, and
	// that wait counts in their latency.
	for i := 2; i < 6; i++ {
		wait := recs[1].done.Sub(recs[i].due)
		if got := recs[i].latencyMs(); got < ms(wait) {
			t.Errorf("request %d latency %.1f ms, want at least the %.1f ms it was held up", i, got, ms(wait))
		}
		if recs[i].sent.Before(recs[1].done) {
			t.Errorf("request %d sent before request 1 returned", i)
		}
		// The generator sent it as soon as it could: the delay was the
		// system's, not the generator's.
		if recs[i].late > 5*time.Millisecond {
			t.Errorf("request %d: generator late by %v", i, recs[i].late)
		}
	}
	if fellBehind(recs, interval) != 0 {
		t.Errorf("fellBehind = %g, want 0: the stall was the system's", fellBehind(recs, interval))
	}
}

func TestFellBehind(t *testing.T) {
	recs := make([]sendRecord, 10)
	recs[3].late = 20 * time.Millisecond
	if got := fellBehind(recs, 10*time.Millisecond); got != 0.1 {
		t.Errorf("fellBehind = %g, want 0.1", got)
	}
}
