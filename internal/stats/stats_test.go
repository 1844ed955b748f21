package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestMeanStd(t *testing.T) {
	tests := []struct {
		name string
		xs   []float64
		mean float64
	}{
		{"empty", nil, 0},
		{"single", []float64{5}, 5},
		{"simple", []float64{1, 2, 3, 4}, 2.5},
		{"constant", []float64{7, 7, 7}, 7},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Mean(tt.xs); math.Abs(got-tt.mean) > 1e-12 {
				t.Fatalf("Mean = %g, want %g", got, tt.mean)
			}
		})
	}
}

func TestMinMax(t *testing.T) {
	min, max := MinMax([]float64{3, -1, 4, 1, 5})
	if min != -1 || max != 5 {
		t.Fatalf("MinMax = %g/%g, want -1/5", min, max)
	}
	if min, max := MinMax(nil); min != 0 || max != 0 {
		t.Fatalf("MinMax(nil) = %g/%g", min, max)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 10}, {100, 50}, {50, 30}, {25, 20}, {-5, 10}, {110, 50},
		{12.5, 15}, // interpolation between 10 and 20
	}
	for _, tt := range tests {
		if got := Percentile(xs, tt.p); math.Abs(got-tt.want) > 1e-12 {
			t.Fatalf("Percentile(%g) = %g, want %g", tt.p, got, tt.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Fatalf("Percentile(nil) = %g", got)
	}
}

func TestCDF(t *testing.T) {
	pts := CDF([]float64{3, 1, 2})
	if len(pts) != 3 {
		t.Fatalf("CDF points = %d, want 3", len(pts))
	}
	// Sorted x, monotone y ending at 1.
	for i := 1; i < len(pts); i++ {
		if pts[i].X < pts[i-1].X || pts[i].Y < pts[i-1].Y {
			t.Fatalf("CDF not monotone: %v", pts)
		}
	}
	if pts[len(pts)-1].Y != 1 {
		t.Fatalf("CDF does not end at 1: %v", pts)
	}
	if CDF(nil) != nil {
		t.Fatal("CDF(nil) != nil")
	}
}

func TestFormatSeriesTable(t *testing.T) {
	s := []Series{
		{Name: "fl", X: []float64{1, 2}, Y: []float64{0.5, 0.6}},
		{Name: "mixnn", X: []float64{1, 2}, Y: []float64{0.5, 0.61}},
	}
	out := FormatSeriesTable("round", s)
	if !strings.Contains(out, "fl") || !strings.Contains(out, "mixnn") {
		t.Fatalf("missing headers:\n%s", out)
	}
	if !strings.Contains(out, "0.6100") {
		t.Fatalf("missing value:\n%s", out)
	}
	if lines := strings.Count(out, "\n"); lines != 3 {
		t.Fatalf("lines = %d, want 3:\n%s", lines, out)
	}
	if FormatSeriesTable("x", nil) != "" {
		t.Fatal("empty series produced output")
	}
}

func TestSparkline(t *testing.T) {
	if got := Sparkline(nil); got != "" {
		t.Fatalf("Sparkline(nil) = %q", got)
	}
	out := Sparkline([]float64{0, 0.5, 1})
	if len([]rune(out)) != 3 {
		t.Fatalf("sparkline runes = %d, want 3", len([]rune(out)))
	}
	flat := Sparkline([]float64{2, 2, 2})
	if len([]rune(flat)) != 3 {
		t.Fatalf("flat sparkline runes = %d", len([]rune(flat)))
	}
}

// Property: the CDF evaluated at the maximum is 1 and percentiles are
// bounded by the extrema.
func TestQuickCDFBounds(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) == 0 {
			return true
		}
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
		}
		min, max := MinMax(xs)
		if pts := CDF(xs); pts[len(pts)-1].X != max || pts[len(pts)-1].Y != 1 {
			return false
		}
		for _, p := range []float64{0, 25, 50, 75, 100} {
			v := Percentile(xs, p)
			if v < min || v > max {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
