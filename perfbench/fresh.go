package main

import "time"

// freshness returns, per batch, the time from its due time to the
// acknowledgement that first made analytics cover it, in milliseconds.
// computed[j] is how many batches the compute round run with batch j
// covered (0 when OCA deferred it); that round covers batches
// j-computed[j]+1 through j. A non-zero flush is the acknowledgement of
// the final flush, which covers every batch still deferred. Batches no
// acknowledgement covers get -1 and are counted in uncovered.
func freshness(due, ack []time.Time, computed []int, flush time.Time) (ms []float64, uncovered int) {
	ms = make([]float64, len(due))
	for i := range ms {
		ms[i] = -1
	}
	for j, c := range computed {
		for k := j; k > j-c && k >= 0; k-- {
			if ms[k] < 0 {
				ms[k] = msSince(due[k], ack[j])
			}
		}
	}
	for k := range ms {
		if ms[k] >= 0 {
			continue
		}
		if flush.IsZero() {
			uncovered++
			continue
		}
		ms[k] = msSince(due[k], flush)
	}
	return ms, uncovered
}

// coveredOnly drops the -1 entries freshness uses for uncovered batches.
func coveredOnly(ms []float64) []float64 {
	out := make([]float64, 0, len(ms))
	for _, x := range ms {
		if x >= 0 {
			out = append(out, x)
		}
	}
	return out
}

func msSince(from, to time.Time) float64 { return ms(to.Sub(from)) }
