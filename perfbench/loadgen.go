package main

import (
	"context"
	"time"
)

// sendRecord is one request of an open-loop stream.
type sendRecord struct {
	due, sent, done time.Time
	// late is how late the generator itself sent: the time from when the
	// request could first go out (its due time, or the previous response
	// if that came later) to when it went out.
	late time.Duration
}

// latencyMs is the request's latency counted from its due time, so a stall
// also counts against every request queued behind it.
func (r sendRecord) latencyMs() float64 { return msSince(r.due, r.done) }

// openLoop sends n requests from one goroutine on a fixed schedule:
// request i is due at start + i*interval, whether or not earlier requests
// have been answered. Requests share one connection, so a request due
// while the previous one is outstanding goes out as soon as it returns.
// send performs request i. openLoop returns early, with the records made
// so far, when ctx ends.
func openLoop(ctx context.Context, start time.Time, interval time.Duration, n int, send func(i int)) []sendRecord {
	recs := make([]sendRecord, 0, n)
	var prev time.Time
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				return recs
			}
		}
		ready := due
		if prev.After(ready) {
			ready = prev
		}
		sent := time.Now()
		send(i)
		prev = time.Now()
		recs = append(recs, sendRecord{due: due, sent: sent, done: prev, late: sent.Sub(ready)})
	}
	return recs
}
