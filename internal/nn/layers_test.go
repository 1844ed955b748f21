package nn

import (
	"math/rand"
	"testing"

	"mixnn/internal/tensor"
)

func TestReLUForwardValues(t *testing.T) {
	r := NewReLU("r")
	x := tensor.MustFromSlice([]float64{-2, -0.5, 0, 0.5, 2}, 1, 5)
	y := r.Forward(x, false)
	want := tensor.MustFromSlice([]float64{0, 0, 0, 0.5, 2}, 1, 5)
	if !tensor.Equal(y, want) {
		t.Fatalf("ReLU = %v, want %v", y, want)
	}
	// Input must not be mutated.
	if x.Data()[0] != -2 {
		t.Fatal("ReLU mutated its input")
	}
}

func TestReLUBackwardMasks(t *testing.T) {
	r := NewReLU("r")
	x := tensor.MustFromSlice([]float64{-1, 1, -0.1, 0.1}, 1, 4)
	r.Forward(x, true)
	grad := tensor.MustFromSlice([]float64{10, 10, 10, 10}, 1, 4)
	dx := r.Backward(grad)
	want := tensor.MustFromSlice([]float64{0, 10, 0, 10}, 1, 4)
	if !tensor.Equal(dx, want) {
		t.Fatalf("ReLU backward = %v, want %v", dx, want)
	}
}

func TestBackwardWithoutForwardPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	grad := tensor.New(1, 4)
	layers := map[string]Layer{
		"relu":  NewReLU("r"),
		"dense": NewDense("d", 4, 4, rng),
		"pool":  NewMaxPool2D("p", 1, 2, 2, 2),
		"conv":  NewConv2D("c", tensor.ConvGeom{InC: 1, InH: 2, InW: 2, KH: 1, KW: 1, Stride: 1}, 1, rng),
		"local": NewLocallyConnected2D("l", tensor.ConvGeom{InC: 1, InH: 2, InW: 2, KH: 1, KW: 1, Stride: 1}, 1, rng),
	}
	for name, l := range layers {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("Backward without training Forward did not panic")
				}
			}()
			l.Backward(grad)
		})
	}
}

func TestMaxPoolKnownValues(t *testing.T) {
	p := NewMaxPool2D("p", 1, 4, 4, 2)
	x := tensor.MustFromSlice([]float64{
		1, 2, 9, 4,
		5, 6, 7, 8,
		3, 1, 0, 2,
		4, 8, 1, 5,
	}, 1, 16)
	y := p.Forward(x, true)
	want := tensor.MustFromSlice([]float64{6, 9, 8, 5}, 1, 4)
	if !tensor.Equal(y, want) {
		t.Fatalf("MaxPool = %v, want %v", y, want)
	}
	// Backward routes gradient only to the argmax positions.
	dx := p.Backward(tensor.MustFromSlice([]float64{1, 1, 1, 1}, 1, 4))
	if got := dx.Data()[5]; got != 1 { // position of the 6
		t.Fatalf("grad at argmax = %g, want 1", got)
	}
	if got := dx.Data()[0]; got != 0 {
		t.Fatalf("grad at non-max = %g, want 0", got)
	}
	sum := 0.0
	for _, v := range dx.Data() {
		sum += v
	}
	if sum != 4 {
		t.Fatalf("gradient mass = %g, want 4", sum)
	}
}

func TestMaxPoolRejectsIndivisible(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("indivisible pooling accepted")
		}
	}()
	NewMaxPool2D("p", 1, 5, 4, 2)
}

func TestFlattenIsIdentity(t *testing.T) {
	f := NewFlatten("f")
	rng := rand.New(rand.NewSource(2))
	x := tensor.New(3, 7).RandN(rng, 0, 1)
	if f.Forward(x, true) != x {
		t.Fatal("Flatten Forward is not identity")
	}
	if f.Backward(x) != x {
		t.Fatal("Flatten Backward is not identity")
	}
	if f.Params() != nil || f.Grads() != nil {
		t.Fatal("Flatten has parameters")
	}
}

func TestLocallyConnectedDiffersFromConv(t *testing.T) {
	// With spatially-varying weights, a locally-connected layer must be
	// able to produce different outputs at positions where a conv layer
	// (shared weights) would produce identical ones.
	rng := rand.New(rand.NewSource(3))
	geom := tensor.ConvGeom{InC: 1, InH: 2, InW: 2, KH: 1, KW: 1, Stride: 1, Pad: 0}
	local := NewLocallyConnected2D("l", geom, 1, rng)

	// Constant input: a conv would output the same value at all 4
	// positions; the locally-connected layer should not (random init makes
	// equal weights across positions measure-zero).
	x := tensor.Ones(1, 4)
	y := local.Forward(x, false)
	allEqual := true
	for i := 1; i < 4; i++ {
		if y.Data()[i] != y.Data()[0] {
			allEqual = false
		}
	}
	if allEqual {
		t.Fatal("locally-connected layer behaves like a shared-weight conv")
	}

	conv := NewConv2D("c", geom, 1, rng)
	yc := conv.Forward(x, false)
	for i := 1; i < 4; i++ {
		if yc.Data()[i] != yc.Data()[0] {
			t.Fatal("1x1 conv on constant input is not constant")
		}
	}
}

func TestDenseKnownValues(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := NewDense("d", 2, 2, rng)
	// Overwrite weights with known values: y = x·W + b.
	copy(d.Params()[0].Data(), []float64{1, 2, 3, 4}) // W
	copy(d.Params()[1].Data(), []float64{10, 20})     // b
	x := tensor.MustFromSlice([]float64{1, 1}, 1, 2)
	y := d.Forward(x, false)
	want := tensor.MustFromSlice([]float64{1*1 + 1*3 + 10, 1*2 + 1*4 + 20}, 1, 2)
	if !tensor.ApproxEqual(y, want, 1e-12) {
		t.Fatalf("Dense = %v, want %v", y, want)
	}
}

func TestLayerShapePanics(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tests := []struct {
		name string
		fn   func()
	}{
		{"dense wrong width", func() { NewDense("d", 3, 2, rng).Forward(tensor.New(1, 4), false) }},
		{"conv wrong width", func() {
			NewConv2D("c", tensor.ConvGeom{InC: 1, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}, 2, rng).
				Forward(tensor.New(1, 9), false)
		}},
		{"pool wrong width", func() { NewMaxPool2D("p", 1, 4, 4, 2).Forward(tensor.New(1, 9), false) }},
		{"dense zero dims", func() { NewDense("d", 0, 2, rng) }},
		{"conv zero outc", func() {
			NewConv2D("c", tensor.ConvGeom{InC: 1, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 1}, 0, rng)
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			tt.fn()
		})
	}
}

func TestConvDims(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	geom := tensor.ConvGeom{InC: 3, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}
	c := NewConv2D("c", geom, 5, rng)
	if c.InDim() != 3*8*8 {
		t.Fatalf("InDim = %d", c.InDim())
	}
	if c.OutDim() != 5*8*8 {
		t.Fatalf("OutDim = %d", c.OutDim())
	}
	if c.geom != geom {
		t.Fatalf("geom = %+v", c.geom)
	}
	l := NewLocallyConnected2D("l", geom, 2, rng)
	if l.InDim() != 3*8*8 || l.OutDim() != 2*8*8 {
		t.Fatalf("local dims = %d/%d", l.InDim(), l.OutDim())
	}
}
