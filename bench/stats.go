package main

import (
	"sort"
	"time"
)

// Statistics over small samples.

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// quantile interpolates linearly in a sorted sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// spread is the distance between the first and third quartile as a
// share of the median — the quartiles of Python's
// statistics.quantiles(v, n=4), which the repeatability criterion
// uses.  Under four samples it falls back to the full range.
func spread(v []float64) float64 {
	s := sortedCopy(v)
	m := quantile(s, 0.5)
	if len(s) < 2 || m == 0 {
		return 0
	}
	if len(s) < 4 {
		return (s[len(s)-1] - s[0]) / m
	}
	exclusive := func(q float64) float64 {
		pos := q*float64(len(s)+1) - 1
		lo := min(max(int(pos), 0), len(s)-2)
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return (exclusive(0.75) - exclusive(0.25)) / m
}

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

func sumDur(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}
