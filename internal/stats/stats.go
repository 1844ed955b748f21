// Package stats provides the small statistics toolkit the experiments
// need: the mean, CDFs, percentiles and simple text rendering of series.
package stats

import (
	"fmt"
	"sort"
	"strings"
)

// Mean returns the arithmetic mean (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// MinMax returns the extrema (0,0 for an empty slice).
func MinMax(xs []float64) (min, max float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between closest ranks.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Point is one (x, y) sample of a curve.
type Point struct{ X, Y float64 }

// CDF returns the empirical cumulative distribution of xs: for each sorted
// value v_i the fraction of values <= v_i.
func CDF(xs []float64) []Point {
	if len(xs) == 0 {
		return nil
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	out := make([]Point, len(sorted))
	for i, v := range sorted {
		out[i] = Point{X: v, Y: float64(i+1) / float64(len(sorted))}
	}
	return out
}

// Series is a named curve, used by the experiment tables.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// FormatSeriesTable renders several series sharing an x-axis as an aligned
// text table (one row per x value, one column per series).
func FormatSeriesTable(xLabel string, series []Series) string {
	if len(series) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s", xLabel)
	for _, s := range series {
		fmt.Fprintf(&b, "%14s", s.Name)
	}
	b.WriteByte('\n')
	for i := range series[0].X {
		fmt.Fprintf(&b, "%-12.4g", series[0].X[i])
		for _, s := range series {
			if i < len(s.Y) {
				fmt.Fprintf(&b, "%14.4f", s.Y[i])
			} else {
				fmt.Fprintf(&b, "%14s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Sparkline renders values as a compact unicode bar chart, for quick
// eyeballing of convergence curves in terminal output.
func Sparkline(xs []float64) string {
	if len(xs) == 0 {
		return ""
	}
	blocks := []rune("▁▂▃▄▅▆▇█")
	min, max := MinMax(xs)
	var b strings.Builder
	for _, x := range xs {
		idx := 0
		if max > min {
			idx = int((x - min) / (max - min) * float64(len(blocks)-1))
		}
		b.WriteRune(blocks[idx])
	}
	return b.String()
}
