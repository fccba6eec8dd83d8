package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between the closest ranks; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// geomean of positive values; 0 for an empty sample.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// windowRate is the median, over the whole one-second windows after start,
// of the completions in each: a rate that a stall confined to a minority of
// windows does not move. Runs shorter than one window fall back to the plain
// rate.
func windowRate(start time.Time, done []time.Time) float64 {
	if len(done) == 0 {
		return 0
	}
	var last time.Duration
	for _, t := range done {
		last = max(last, t.Sub(start))
	}
	n := int(last / time.Second)
	if n == 0 {
		return float64(len(done)) / last.Seconds()
	}
	per := make([]float64, n)
	for _, t := range done {
		if w := int(t.Sub(start) / time.Second); w < n {
			per[w]++
		}
	}
	return median(per)
}
