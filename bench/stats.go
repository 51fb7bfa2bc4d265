package main

import (
	"math"
	"sort"
)

// quantile returns the p-quantile (0 ≤ p ≤ 1) of xs by linear
// interpolation between order statistics (the "inclusive" method: p=0 is
// the minimum, p=1 the maximum). xs need not be sorted; it is not
// modified. An empty sample yields NaN.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, p)
}

func quantileSorted(s []float64, p float64) float64 {
	if p <= 0 {
		return s[0]
	}
	if p >= 1 {
		return s[len(s)-1]
	}
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// summary is a timing reported the way the ledger wants it: the median,
// the quartiles around it, and how many samples they rest on.
type summary struct {
	Median, Q1, Q3 float64
	N              int
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{Median: math.NaN(), Q1: math.NaN(), Q3: math.NaN()}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return summary{
		Median: quantileSorted(s, 0.5),
		Q1:     quantileSorted(s, 0.25),
		Q3:     quantileSorted(s, 0.75),
		N:      len(s),
	}
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailLadder is the percentiles a latency report may quote, ascending.
var tailLadder = []float64{0.50, 0.75, 0.90, 0.95, 0.99, 0.999}

// highestSupportedPercentile returns the largest rung of tailLadder that
// still has at least ten samples beyond it in a sample of size n, and
// false when not even the median does (n < 20).
func highestSupportedPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range tailLadder {
		if beyond := float64(n) * (1 - p); beyond >= 10-1e-9 {
			best, ok = p, true
		}
	}
	return best, ok
}
