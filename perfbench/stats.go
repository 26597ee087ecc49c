package main

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean returns the arithmetic mean of xs, or NaN for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the first, second and third quartile of xs with the
// same "exclusive" interpolation as Python's statistics.quantiles(xs, n=4),
// so a run's spread reads the same as the acceptance check computes it. It
// needs at least two values; with fewer every quartile is the lone value
// (or NaN when xs is empty).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	switch len(xs) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := sorted(xs)
	ld := len(s)
	m := ld + 1
	const n = 4
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return (q3 - q1) / q2
}

// percentile returns the nearest-rank p-th percentile of xs (0 < p <= 100):
// the smallest sample with at least p% of the samples at or below it. NaN
// for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// suiteOverheadX is Table 2's overhead column as a ratio: the wall time of
// one instrumented suite run (suiteS spans runs runs) over the wall time of
// one uninstrumented run of the same suite.
func suiteOverheadX(suiteS float64, runs int, baselineS float64) float64 {
	return suiteS / float64(runs) / baselineS
}

// callOverheadX is the per-call slowdown of the instrumented containers:
// instrumented ns/op over uninstrumented ns/op on the identical op stream.
func callOverheadX(instrumentedNs, uninstrumentedNs float64) float64 {
	return instrumentedNs / uninstrumentedNs
}
