package main

import (
	"math"
	"slices"
	"time"
)

// minTail is how many samples must lie beyond a percentile before the
// benchmark reports it: a p99 needs at least 1,000 samples, a p50 at
// least 20.
const minTail = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of samples,
// and ok only when at least minTail samples lie above it. samples is
// sorted in place.
func percentile(samples []float64, q float64) (v float64, ok bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	slices.Sort(samples)
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if n-1-idx < minTail {
		return 0, false
	}
	return samples[idx], true
}

// median returns the middle value of samples (the mean of the two middle
// ones for an even count), sorting in place. It is for run-internal
// summaries such as the median of several set-ups, where the tail rule
// of percentile does not apply.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return math.NaN()
	}
	slices.Sort(samples)
	if n%2 == 1 {
		return samples[n/2]
	}
	return (samples[n/2-1] + samples[n/2]) / 2
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, v := range samples {
		s += v
	}
	return s / float64(len(samples))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
