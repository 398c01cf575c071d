package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie strictly above a reported
// percentile: a tail figure resting on fewer is noise, not a measurement.
const minBeyond = 10

// minSamples is the smallest sample count that supports percentile q
// under the minBeyond rule.
func minSamples(q float64) int {
	// Nearest rank k = ceil(q*n) leaves n-k samples beyond; n-k >= minBeyond
	// holds from n = ceil(minBeyond/(1-q)) on, up to float rounding, which the
	// loop settles.
	n := int(math.Ceil(minBeyond/(1-q))) - 1
	for n < 1 || n-nearestRank(q, n) < minBeyond {
		n++
	}
	return n
}

// nearestRank is the 1-based rank of percentile q in n sorted samples.
func nearestRank(q float64, n int) int {
	k := int(math.Ceil(q*float64(n) - 1e-9))
	if k < 1 {
		k = 1
	}
	return k
}

// percentile returns the nearest-rank percentile q (0 < q < 1) of xs. It
// fails when fewer than minBeyond samples lie beyond that rank.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", q*100)
	}
	k := nearestRank(q, n)
	if n-k < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, %d samples leave %d", q*100, minBeyond, n, n-k)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[k-1], nil
}

// median returns the middle of xs (the mean of the two middle samples for
// even counts); 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
