package main

import (
	"testing"
	"time"
)

func us(v ...int) []time.Duration {
	out := make([]time.Duration, len(v))
	for i, x := range v {
		out[i] = time.Duration(x) * time.Microsecond
	}
	return out
}

func TestExactQuantileIsAnOrderStatistic(t *testing.T) {
	cases := []struct {
		samples    []time.Duration
		q          float64
		want       float64
		wantBeyond int
	}{
		{us(5, 1, 4, 2, 3), 0.50, 3, 2},
		{us(5, 1, 4, 2, 3), 0.99, 5, 0},
		{us(4, 1, 3, 2), 0.50, 2, 2}, // nearest rank, no interpolation
		{us(7), 0.99, 7, 0},
		{us(1, 2, 3, 4, 5, 6, 7, 8, 9, 10), 0.10, 1, 9},
	}
	for _, c := range cases {
		got := exactQuantile(c.samples, c.q)
		if got.Value != c.want || got.Beyond != c.wantBeyond || got.N != len(c.samples) {
			t.Errorf("exactQuantile(q=%g) = %+v, want value %g with %d beyond of %d",
				c.q, got, c.want, c.wantBeyond, len(c.samples))
		}
	}
	if got := exactQuantile(nil, 0.5); got.N != 0 {
		t.Errorf("empty input: %+v", got)
	}
}

func TestP99NeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n  int
		ok bool
	}{{999, false}, {1000, true}, {5000, true}, {100, false}} {
		samples := make([]time.Duration, c.n)
		for i := range samples {
			samples[i] = time.Duration(i)
		}
		q := exactQuantile(samples, 0.99)
		if err := q.checkBeyond("p99"); (err == nil) != c.ok {
			t.Errorf("n=%d: %d beyond, checkBeyond error %v, want ok=%v", c.n, q.Beyond, err, c.ok)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
}
