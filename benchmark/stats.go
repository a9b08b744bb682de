package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quantile is the linearly interpolated q-quantile (0 <= q <= 1) of an
// ascending slice; 0 for an empty one.
func quantile(asc []float64, q float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	pos := q * float64(len(asc)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return asc[lo] + (asc[hi]-asc[lo])*(pos-float64(lo))
}

// median of xs in any order; 0 for an empty slice.
func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is what the
// driver computes spreads from. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	asc := sorted(xs)
	n := len(asc)
	if n < 2 {
		return median(xs), median(xs)
	}
	at := func(i int) float64 { // the i-th of 4 cut points
		pos := float64(i*(n+1)) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return asc[j-1] + (asc[j]-asc[j-1])*(pos-float64(j))
	}
	return at(1), at(3)
}

// iqrShare is the distance between the quartiles as a share of the median.
func iqrShare(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}

// rank is the 1-based nearest-rank position of the p-th percentile
// (0 < p <= 100) among n sorted samples.
func rank(n int, p float64) int {
	return max(1, int(math.Ceil(p*float64(n)/100)))
}

// nearestRank is the p-th percentile by the nearest-rank rule: the smallest
// value with at least p percent of the sample at or below it. With fewer
// than 100/(100-p) values it is the maximum.
func nearestRank(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	return asc[rank(len(asc), p)-1]
}

// beyond counts the samples above the nearest-rank p-th percentile position,
// i.e. how many observations support the tail figure.
func beyond(n int, p float64) int { return n - rank(n, p) }

// tail is the latency tail figure and how many samples lie beyond it. With
// at least 100 samples it is the nearest-rank p95: a 10 s serving run answers
// 1 400 to 8 000 requests, which puts 70 to 400 of them beyond the p95 — the
// choosing-metrics guide wants at least ten — where the p99 of the slowest
// workload would rest on 14 and, measured, swings 2.5 to 4 times as much as
// the median from run to run. A training run has a handful of iterations and
// no tail to speak of; its figure is the nearest-rank p50. The percentile
// depends on the kind of workload only, never on how fast a run happened to
// be.
func tail(asc []float64) (value, percentile float64, support int) {
	percentile = 50
	if len(asc) >= 100 {
		percentile = 95
	}
	return nearestRank(asc, percentile), percentile, beyond(len(asc), percentile)
}
