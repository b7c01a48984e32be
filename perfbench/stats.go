package main

import (
	"math"
	"sort"
	"time"
)

// minTail is the number of samples the percentile rule keeps beyond a
// reported tail percentile: a tail read from fewer samples is one or
// two outliers, not a percentile.
const minTail = 10

// tailQuantile is the percentile rule: the highest quantile not above
// want that still leaves at least minTail of n samples beyond it. It
// never goes below the median.
func tailQuantile(n int, want float64) float64 {
	if n <= 0 {
		return 0.5
	}
	q := 1 - float64(minTail)/float64(n)
	if q > want {
		q = want
	}
	if q < 0.5 {
		q = 0.5
	}
	return q
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (NaN for no samples). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tail reports xs at the percentile rule's quantile for want, and the
// quantile it used.
func tail(xs []float64, want float64) (value, q float64) {
	q = tailQuantile(len(xs), want)
	return quantile(xs, q), q
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
