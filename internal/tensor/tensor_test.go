package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZeroFilled(t *testing.T) {
	x := New(2, 3, 4)
	if got := x.Size(); got != 24 {
		t.Fatalf("Size() = %d, want 24", got)
	}
	for i, v := range x.Data() {
		if v != 0 {
			t.Fatalf("element %d = %g, want 0", i, v)
		}
	}
	if x.Rank() != 3 || x.Dim(0) != 2 || x.Dim(1) != 3 || x.Dim(2) != 4 {
		t.Fatalf("unexpected shape: %v", x.Shape())
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	tests := []struct {
		name  string
		shape []int
	}{
		{"empty", nil},
		{"zero dim", []int{3, 0}},
		{"negative dim", []int{-1, 2}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("New(%v) did not panic", tt.shape)
				}
			}()
			New(tt.shape...)
		})
	}
}

func TestFromSlice(t *testing.T) {
	d := []float64{1, 2, 3, 4, 5, 6}
	x, err := FromSlice(d, 2, 3)
	if err != nil {
		t.Fatalf("FromSlice: %v", err)
	}
	if x.data[1*3+2] != 6 {
		t.Fatalf("element (1,2) = %g, want 6", x.data[1*3+2])
	}
	if _, err := FromSlice(d, 2, 2); err == nil {
		t.Fatal("FromSlice with wrong shape did not error")
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(3, 4)
	x.Set(7.5, 2, 1)
	if got := x.Data()[2*4+1]; got != 7.5 {
		t.Fatalf("flat layout wrong: %g", got)
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	x := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Set did not panic")
		}
	}()
	x.Set(1, 2, 0)
}

func TestCloneIsDeep(t *testing.T) {
	x := MustFromSlice([]float64{1, 2}, 2)
	y := x.Clone()
	y.Data()[0] = 99
	if x.Data()[0] != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := MustFromSlice([]float64{1, 2, 3}, 3)
	b := MustFromSlice([]float64{10, 20, 30}, 3)

	tests := []struct {
		name string
		got  *Tensor
		want []float64
	}{
		{"AddScaled", a.Clone().AddScaled(b, 0.1), []float64{2, 4, 6}},
		{"Apply", a.Clone().Apply(func(x float64) float64 { return -x }), []float64{-1, -2, -3}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			want := MustFromSlice(tt.want, 3)
			if !ApproxEqual(tt.got, want, 1e-12) {
				t.Fatalf("got %v, want %v", tt.got, want)
			}
		})
	}
}

func TestOpsPanicOnSizeMismatch(t *testing.T) {
	a, b := New(3), New(4)
	ops := map[string]func(){
		"Add":               func() { a.Clone().Add(b) },
		"Sub":               func() { a.Clone().Sub(b) },
		"AddScaled":         func() { a.Clone().AddScaled(b, 1) },
		"Dot":               func() { Dot(a, b) },
		"EuclideanDistance": func() { EuclideanDistance(a, b) },
	}
	for name, op := range ops {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s with mismatched sizes did not panic", name)
				}
			}()
			op()
		})
	}
}

func TestReductions(t *testing.T) {
	x := MustFromSlice([]float64{3, -1, 4, 1, -5, 9}, 2, 3)
	if got := x.Sum(); got != 11 {
		t.Fatalf("Sum = %g, want 11", got)
	}
	if got := x.Mean(); math.Abs(got-11.0/6) > 1e-15 {
		t.Fatalf("Mean = %g", got)
	}
	if got := x.Max(); got != 9 {
		t.Fatalf("Max = %g, want 9", got)
	}
	if got := x.Min(); got != -5 {
		t.Fatalf("Min = %g, want -5", got)
	}
}

func TestArgMaxRows(t *testing.T) {
	x := MustFromSlice([]float64{
		0.1, 0.8, 0.1,
		0.9, 0.05, 0.05,
		0.2, 0.2, 0.6,
	}, 3, 3)
	got := x.ArgMaxRows()
	want := []int{1, 0, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ArgMaxRows = %v, want %v", got, want)
		}
	}
}

func TestVectorMetrics(t *testing.T) {
	a := MustFromSlice([]float64{1, 0}, 2)
	b := MustFromSlice([]float64{0, 1}, 2)
	c := MustFromSlice([]float64{2, 0}, 2)
	if got := CosineSimilarity(a, b); math.Abs(got) > 1e-15 {
		t.Fatalf("cos(orthogonal) = %g, want 0", got)
	}
	if got := CosineSimilarity(a, c); math.Abs(got-1) > 1e-15 {
		t.Fatalf("cos(parallel) = %g, want 1", got)
	}
	if got := CosineSimilarity(a, New(2)); got != 0 {
		t.Fatalf("cos with zero vector = %g, want 0", got)
	}
	if got := EuclideanDistance(a, b); math.Abs(got-math.Sqrt2) > 1e-15 {
		t.Fatalf("dist = %g, want sqrt(2)", got)
	}
	if got := a.Norm(); got != 1 {
		t.Fatalf("Norm = %g, want 1", got)
	}
}

func TestEqualAndApproxEqual(t *testing.T) {
	a := MustFromSlice([]float64{1, 2}, 2)
	b := MustFromSlice([]float64{1, 2}, 1, 2)
	if Equal(a, b) {
		t.Fatal("Equal ignored shape difference")
	}
	c := MustFromSlice([]float64{1, 2 + 1e-9}, 2)
	if Equal(a, c) {
		t.Fatal("Equal ignored value difference")
	}
	if !ApproxEqual(a, c, 1e-8) {
		t.Fatal("ApproxEqual too strict")
	}
	if ApproxEqual(a, c, 1e-10) {
		t.Fatal("ApproxEqual too lax")
	}
}

func TestStringForms(t *testing.T) {
	small := MustFromSlice([]float64{1, 2}, 2)
	if s := small.String(); s == "" {
		t.Fatal("empty String for small tensor")
	}
	big := New(100)
	if s := big.String(); s == "" {
		t.Fatal("empty String for big tensor")
	}
}

func TestRandFillers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := New(10000).RandN(rng, 2, 0.5)
	if m := x.Mean(); math.Abs(m-2) > 0.05 {
		t.Fatalf("RandN mean = %g, want ~2", m)
	}
	u := New(10000).RandU(rng, -1, 1)
	if min, max := u.Min(), u.Max(); min < -1 || max >= 1 {
		t.Fatalf("RandU out of range: [%g, %g]", min, max)
	}
	g := New(100).GlorotUniform(rng, 50, 50)
	limit := math.Sqrt(6.0 / 100)
	if g.Max() > limit || g.Min() < -limit {
		t.Fatalf("Glorot out of range: [%g, %g] (limit %g)", g.Min(), g.Max(), limit)
	}
	h := New(10000).HeNormal(rng, 2)
	if s := h.Norm() / 100; math.Abs(s-1) > 0.05 { // std should be sqrt(2/2)=1
		t.Fatalf("HeNormal std = %g, want ~1", s)
	}
}

// Property: a + b == b + a element-wise.
func TestQuickAddCommutative(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		a := MustFromSlice(append([]float64(nil), vals...), len(vals))
		b := New(len(vals)).RandN(rand.New(rand.NewSource(42)), 0, 1)
		return ApproxEqual(a.Clone().Add(b), b.Clone().Add(a), 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: scaling by alpha then 1/alpha is identity (alpha != 0).
func TestQuickScaleInverse(t *testing.T) {
	f := func(vals []float64, alpha float64) bool {
		if len(vals) == 0 || alpha == 0 || math.IsNaN(alpha) || math.IsInf(alpha, 0) || math.Abs(alpha) < 1e-6 || math.Abs(alpha) > 1e6 {
			return true
		}
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
				return true
			}
		}
		a := MustFromSlice(append([]float64(nil), vals...), len(vals))
		got := a.Clone().Scale(alpha).Scale(1 / alpha)
		return ApproxEqual(a, got, 1e-6*a.Norm()+1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
