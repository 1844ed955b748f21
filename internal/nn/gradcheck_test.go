package nn

import (
	"math"
	"math/rand"
	"testing"

	"mixnn/internal/tensor"
)

// numericalGrad estimates d(loss)/d(theta) for every scalar in the given
// parameter tensors by central finite differences, where loss is the
// network's softmax cross-entropy on a fixed batch.
func numericalGrad(net *Network, x *tensor.Tensor, labels []int, params []*tensor.Tensor) []*tensor.Tensor {
	const h = 1e-5
	grads := make([]*tensor.Tensor, len(params))
	for pi, p := range params {
		g := tensor.New(p.Shape()...)
		pd := p.Data()
		for i := range pd {
			orig := pd[i]
			pd[i] = orig + h
			lp := net.Loss(x, labels)
			pd[i] = orig - h
			lm := net.Loss(x, labels)
			pd[i] = orig
			g.Data()[i] = (lp - lm) / (2 * h)
		}
		grads[pi] = g
	}
	return grads
}

// analyticGrad runs one forward/backward pass and returns copies of the
// accumulated gradients for the given parameter tensors.
func analyticGrad(net *Network, x *tensor.Tensor, labels []int) []*tensor.Tensor {
	net.ZeroGrads()
	logits := net.Forward(x, true)
	var loss SoftmaxCrossEntropy
	_, probs := loss.Forward(logits, labels)
	net.Backward(loss.Backward(probs, labels))
	var out []*tensor.Tensor
	for _, l := range net.Layers() {
		for _, g := range l.Grads() {
			out = append(out, g.Clone())
		}
	}
	return out
}

func checkGrads(t *testing.T, net *Network, x *tensor.Tensor, labels []int) {
	t.Helper()
	var params []*tensor.Tensor
	for _, l := range net.Layers() {
		params = append(params, l.Params()...)
	}
	analytic := analyticGrad(net, x, labels)
	numeric := numericalGrad(net, x, labels, params)
	if len(analytic) != len(numeric) {
		t.Fatalf("gradient count mismatch: %d analytic vs %d numeric", len(analytic), len(numeric))
	}
	for i := range analytic {
		ad, nd := analytic[i].Data(), numeric[i].Data()
		for j := range ad {
			diff := math.Abs(ad[j] - nd[j])
			scale := math.Max(1e-4, math.Abs(ad[j])+math.Abs(nd[j]))
			if diff/scale > 1e-4 {
				t.Fatalf("param %d scalar %d: analytic %g vs numeric %g (rel %g)",
					i, j, ad[j], nd[j], diff/scale)
			}
		}
	}
}

func TestGradCheckDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := NewNetwork(NewDense("fc1", 6, 5, rng), NewDense("fc2", 5, 3, rng))
	x := tensor.New(4, 6).RandN(rng, 0, 1)
	checkGrads(t, net, x, []int{0, 2, 1, 2})
}

func TestGradCheckDenseReLU(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net := NewNetwork(
		NewDense("fc1", 5, 8, rng), NewReLU("relu1"),
		NewDense("fc2", 8, 3, rng),
	)
	x := tensor.New(3, 5).RandN(rng, 0, 1)
	checkGrads(t, net, x, []int{1, 0, 2})
}

func TestGradCheckConv(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	geom := tensor.ConvGeom{InC: 2, InH: 5, InW: 5, KH: 3, KW: 3, Stride: 1, Pad: 1}
	conv := NewConv2D("conv1", geom, 3, rng)
	net := NewNetwork(conv, NewDense("fc1", conv.OutDim(), 2, rng))
	x := tensor.New(2, geom.InC*geom.InH*geom.InW).RandN(rng, 0, 1)
	checkGrads(t, net, x, []int{0, 1})
}

func TestGradCheckConvStridePad(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	geom := tensor.ConvGeom{InC: 1, InH: 6, InW: 6, KH: 3, KW: 3, Stride: 2, Pad: 1}
	conv := NewConv2D("conv1", geom, 2, rng)
	net := NewNetwork(conv, NewReLU("relu1"), NewDense("fc1", conv.OutDim(), 3, rng))
	x := tensor.New(2, 36).RandN(rng, 0, 1)
	checkGrads(t, net, x, []int{2, 0})
}

func TestGradCheckMaxPool(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	geom := tensor.ConvGeom{InC: 1, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}
	conv := NewConv2D("conv1", geom, 2, rng)
	pool := NewMaxPool2D("pool1", 2, 4, 4, 2)
	net := NewNetwork(conv, pool, NewDense("fc1", pool.OutDim(), 2, rng))
	x := tensor.New(3, 16).RandN(rng, 0, 1)
	checkGrads(t, net, x, []int{0, 1, 1})
}

func TestGradCheckRectPool(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pool := NewMaxPool2DRect("pool1", 1, 6, 8, 1, 2)
	net := NewNetwork(pool, NewDense("fc1", pool.OutDim(), 2, rng))
	x := tensor.New(2, 48).RandN(rng, 0, 1)
	checkGrads(t, net, x, []int{1, 0})
}

func TestGradCheckLocallyConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	geom := tensor.ConvGeom{InC: 2, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 1, Pad: 0}
	local := NewLocallyConnected2D("local1", geom, 2, rng)
	net := NewNetwork(local, NewDense("fc1", local.OutDim(), 2, rng))
	x := tensor.New(2, 32).RandN(rng, 0, 1)
	checkGrads(t, net, x, []int{1, 0})
}

func TestGradCheckDeepFaceStack(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	arch := NewDeepFace("deepface-test", DeepFaceConfig{
		InC: 1, InH: 8, InW: 8, Classes: 2,
		Filters1: 2, Filters2: 2, Local3: 2, Hidden: 6,
	})
	net := arch.Build(rng)
	x := tensor.New(2, 64).RandN(rng, 0, 1)
	checkGrads(t, net, x, []int{0, 1})
}

func TestGradCheckConvNetStack(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	arch := NewConvNet("convnet-test", ConvNetConfig{
		InC: 1, InH: 8, InW: 8, Classes: 3,
		Filters1: 2, Filters2: 2, Hidden1: 8, Hidden2: 6,
		PoolH1: 2, PoolW1: 2, PoolH2: 2, PoolW2: 2,
	})
	net := arch.Build(rng)
	x := tensor.New(2, 64).RandN(rng, 0, 1)
	checkGrads(t, net, x, []int{1, 2})
}
