package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples that must lie beyond a reported
// percentile: with fewer, the figure is one or two outliers, not a tail.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of sorted by the
// nearest-rank rule. It refuses quantiles the sample cannot support: at
// least minBeyond samples must lie strictly beyond the returned rank.
func percentile(sorted []float64, q float64) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("percentile of an empty sample")
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if n-1-rank < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, %d samples leave %d", q*100, minBeyond, n, n-1-rank)
	}
	return sorted[rank], nil
}

// median is the plain middle of a sample; unlike percentile it has no tail
// rule, because summaries of a handful of repeats (setup rounds, restart
// cycles) are medians of everything measured.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns Q1, Q2, Q3 by the exclusive method, the one Python's
// statistics.quantiles(v, n=4) uses, so spreads printed here match the ones
// the acceptance harness computes.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(i int) float64 { // i-th of 3 cut points
		pos := float64(i) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median, the
// run-to-run noise figure bounds are sized against.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}

// latencies collects per-request latencies of one class.
type latencies struct {
	us []float64
}

func (l *latencies) add(d time.Duration) { l.us = append(l.us, float64(d)/float64(time.Microsecond)) }

func (l *latencies) merge(o *latencies) { l.us = append(l.us, o.us...) }

func (l *latencies) sorted() []float64 {
	s := append([]float64(nil), l.us...)
	sort.Float64s(s)
	return s
}

// pct is percentile over the class, zero when the sample cannot support it.
func (l *latencies) pct(q float64) float64 {
	v, err := percentile(l.sorted(), q)
	if err != nil {
		return 0
	}
	return v
}
