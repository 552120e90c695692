package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// quantile is one exact order statistic over raw samples, with the
// sample count behind it and how many samples lie strictly above it.
type quantile struct {
	Value  float64 // microseconds
	N      int
	Beyond int
}

// minBeyond is how many samples must lie beyond a reported quantile:
// a p99 read off fewer than ten slower samples is one outlier's value.
const minBeyond = 10

// exactQuantile returns the nearest-rank q-quantile of samples: the
// sample at rank ceil(q*n) in ascending order. It never interpolates, so
// the value is one that was measured. samples is sorted in place.
func exactQuantile(samples []time.Duration, q float64) quantile {
	n := len(samples)
	if n == 0 {
		return quantile{}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return quantile{
		Value:  float64(samples[rank-1].Nanoseconds()) / 1e3,
		N:      n,
		Beyond: n - rank,
	}
}

// checkBeyond reports an error when q rests on fewer than minBeyond
// samples above it.
func (q quantile) checkBeyond(name string) error {
	if q.Beyond < minBeyond {
		return fmt.Errorf("%s: only %d of %d samples beyond it (need %d)", name, q.Beyond, q.N, minBeyond)
	}
	return nil
}

// median returns the middle value of xs (mean of the two middle values
// for an even count); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}
