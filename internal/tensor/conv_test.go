package tensor

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConvGeomOutputDims(t *testing.T) {
	tests := []struct {
		name         string
		g            ConvGeom
		wantH, wantW int
	}{
		{"no pad stride 1", ConvGeom{InC: 1, InH: 5, InW: 5, KH: 3, KW: 3, Stride: 1, Pad: 0}, 3, 3},
		{"same pad", ConvGeom{InC: 3, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}, 8, 8},
		{"stride 2", ConvGeom{InC: 1, InH: 8, InW: 8, KH: 2, KW: 2, Stride: 2, Pad: 0}, 4, 4},
		{"rect kernel", ConvGeom{InC: 1, InH: 10, InW: 6, KH: 5, KW: 1, Stride: 1, Pad: 0}, 6, 6},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.g.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			if tt.g.OutH() != tt.wantH || tt.g.OutW() != tt.wantW {
				t.Fatalf("out dims = %dx%d, want %dx%d", tt.g.OutH(), tt.g.OutW(), tt.wantH, tt.wantW)
			}
		})
	}
}

func TestConvGeomValidateRejects(t *testing.T) {
	tests := []struct {
		name string
		g    ConvGeom
	}{
		{"zero channel", ConvGeom{InC: 0, InH: 5, InW: 5, KH: 3, KW: 3, Stride: 1}},
		{"zero kernel", ConvGeom{InC: 1, InH: 5, InW: 5, KH: 0, KW: 3, Stride: 1}},
		{"zero stride", ConvGeom{InC: 1, InH: 5, InW: 5, KH: 3, KW: 3, Stride: 0}},
		{"negative pad", ConvGeom{InC: 1, InH: 5, InW: 5, KH: 3, KW: 3, Stride: 1, Pad: -1}},
		{"kernel larger than input", ConvGeom{InC: 1, InH: 2, InW: 2, KH: 5, KW: 5, Stride: 1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.g.Validate(); err == nil {
				t.Fatalf("Validate(%+v) = nil, want error", tt.g)
			}
		})
	}
}

func TestIm2ColKnownValues(t *testing.T) {
	// 1x3x3 image, 2x2 kernel, stride 1, no padding -> 4 columns of 4 rows.
	img := []float64{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}
	g := ConvGeom{InC: 1, InH: 3, InW: 3, KH: 2, KW: 2, Stride: 1, Pad: 0}
	cols := Im2Col(img, g)
	want := MustFromSlice([]float64{
		1, 2, 4, 5, // kernel position (0,0) across the 4 output pixels
		2, 3, 5, 6, // (0,1)
		4, 5, 7, 8, // (1,0)
		5, 6, 8, 9, // (1,1)
	}, 4, 4)
	if !Equal(cols, want) {
		t.Fatalf("Im2Col = %v, want %v", cols, want)
	}
}

func TestIm2ColPaddingZeros(t *testing.T) {
	img := []float64{1, 1, 1, 1}
	g := ConvGeom{InC: 1, InH: 2, InW: 2, KH: 3, KW: 3, Stride: 1, Pad: 1}
	cols := Im2Col(img, g)
	// Corner output (0,0): kernel centre at (0,0); 5 of 9 taps fall outside.
	col0Sum := 0.0
	for r := 0; r < 9; r++ {
		col0Sum += cols.data[r*cols.shape[1]]
	}
	if col0Sum != 4 { // all four image pixels visible, rest zero-padded
		t.Fatalf("padded corner column sum = %g, want 4", col0Sum)
	}
}

// convReference computes a direct (non-lowered) convolution for validation.
func convReference(img []float64, w *Tensor, g ConvGeom, outC int) *Tensor {
	outH, outW := g.OutH(), g.OutW()
	out := New(outC, outH*outW)
	for oc := 0; oc < outC; oc++ {
		for oh := 0; oh < outH; oh++ {
			for ow := 0; ow < outW; ow++ {
				s := 0.0
				for c := 0; c < g.InC; c++ {
					for kh := 0; kh < g.KH; kh++ {
						for kw := 0; kw < g.KW; kw++ {
							ih := oh*g.Stride + kh - g.Pad
							iw := ow*g.Stride + kw - g.Pad
							if ih < 0 || ih >= g.InH || iw < 0 || iw >= g.InW {
								continue
							}
							wIdx := ((oc*g.InC+c)*g.KH+kh)*g.KW + kw
							s += w.Data()[wIdx] * img[(c*g.InH+ih)*g.InW+iw]
						}
					}
				}
				out.Set(s, oc, oh*outW+ow)
			}
		}
	}
	return out
}

func TestIm2ColConvolutionEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := ConvGeom{InC: 3, InH: 7, InW: 6, KH: 3, KW: 3, Stride: 2, Pad: 1}
	outC := 4
	img := New(g.InC*g.InH*g.InW).RandN(rng, 0, 1).Data()
	w := New(outC, g.InC*g.KH*g.KW).RandN(rng, 0, 1)

	got := MatMul(w, Im2Col(img, g))
	want := convReference(img, w, g, outC)
	if !ApproxEqual(got, want, 1e-9) {
		t.Fatal("im2col-lowered convolution disagrees with direct convolution")
	}
}

// Property: Col2Im is the adjoint of Im2Col, i.e. for random x (image) and
// y (column matrix): <Im2Col(x), y> == <x, Col2Im(y)>.
func TestQuickCol2ImAdjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := ConvGeom{
			InC:    1 + int(r.Int31n(3)),
			InH:    3 + int(r.Int31n(5)),
			InW:    3 + int(r.Int31n(5)),
			KH:     1 + int(r.Int31n(3)),
			KW:     1 + int(r.Int31n(3)),
			Stride: 1 + int(r.Int31n(2)),
			Pad:    int(r.Int31n(2)),
		}
		if g.Validate() != nil {
			return true
		}
		x := New(g.InC*g.InH*g.InW).RandN(rng, 0, 1)
		y := New(g.InC*g.KH*g.KW, g.OutH()*g.OutW()).RandN(rng, 0, 1)

		lhs := Dot(Im2Col(x.Data(), g), y)
		colImg := Col2Im(y, g)
		rhs := 0.0
		for i, v := range colImg {
			rhs += v * x.Data()[i]
		}
		return lhs-rhs < 1e-9 && rhs-lhs < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCol2ImPanicsOnShapeMismatch(t *testing.T) {
	g := ConvGeom{InC: 1, InH: 4, InW: 4, KH: 2, KW: 2, Stride: 1, Pad: 0}
	defer func() {
		if recover() == nil {
			t.Fatal("Col2Im with wrong shape did not panic")
		}
	}()
	Col2Im(New(3, 3), g)
}
