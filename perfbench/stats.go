package main

import (
	"fmt"
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks. xs need not be sorted; it is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile is the highest of the usual reporting percentiles that still
// has at least ten samples beyond it, so a tail figure never rests on one or
// two outliers. With fewer than 20 samples it falls back to the median.
func tailQuantile(n int) (q float64, label string) {
	for _, p := range []float64{99.9, 99, 95, 90, 75} {
		if float64(n)*(1-p/100) >= 10 {
			return p / 100, fmt.Sprintf("p%g", p)
		}
	}
	return 0.5, "p50"
}

// durationsMS converts nanosecond samples to milliseconds.
func durationsMS(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	return out
}

// medianNS is the median of nanosecond samples.
func medianNS(ns []int64) float64 {
	xs := make([]float64, len(ns))
	for i, v := range ns {
		xs[i] = float64(v)
	}
	return median(xs)
}

func sumNS(ns []int64) float64 {
	var s float64
	for _, v := range ns {
		s += float64(v)
	}
	return s
}
