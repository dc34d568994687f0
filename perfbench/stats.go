package main

import (
	"math"
	"sort"
	"time"
)

// percentile is one latency quantile together with the number of
// samples it was taken from and how many lie above it.
type percentile struct {
	q       float64
	value   time.Duration
	samples int
	beyond  int
}

// latencyPercentile returns the nearest-rank q-quantile of the samples
// (which it sorts in place). With no samples the value is zero.
func latencyPercentile(samples []time.Duration, q float64) percentile {
	p := percentile{q: q, samples: len(samples)}
	if len(samples) == 0 {
		return p
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	rank := int(math.Ceil(q * float64(len(samples))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(samples) {
		rank = len(samples)
	}
	p.value = samples[rank-1]
	p.beyond = len(samples) - rank
	return p
}

func (p percentile) ms() float64 { return float64(p.value) / float64(time.Millisecond) }

// median of xs (which it sorts in place); NaN for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}
