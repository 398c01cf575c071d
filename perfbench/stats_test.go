package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		q    float64
		n    int
		ok   bool
		want float64
	}{
		{0.9, 100, true, 90},
		{0.9, 99, false, 0},
		{0.9, 250, true, 225},
		{0.99, 1000, true, 990},
		{0.99, 999, false, 0},
		{0.5, 20, true, 10},
		{0.5, 19, false, 0},
	} {
		got, err := percentile(seq(c.n), c.q)
		if (err == nil) != c.ok {
			t.Errorf("p%g of %d samples: err = %v, want ok=%v", c.q*100, c.n, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("p%g of %d samples = %g, want %g", c.q*100, c.n, got, c.want)
		}
	}
}

func TestMinSamplesMatchesPercentile(t *testing.T) {
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 0.999} {
		n := minSamples(q)
		if _, err := percentile(seq(n), q); err != nil {
			t.Errorf("minSamples(%g) = %d, but percentile refuses it: %v", q, n, err)
		}
		if _, err := percentile(seq(n-1), q); err == nil {
			t.Errorf("minSamples(%g) = %d, but %d samples already suffice", q, n, n-1)
		}
	}
	if got := minSamples(0.9); got != 100 {
		t.Errorf("minSamples(0.9) = %d, want 100", got)
	}
	if got := minSamples(0.99); got != 1000 {
		t.Errorf("minSamples(0.99) = %d, want 1000", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %g, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %g, want 2.5", got)
	}
}
