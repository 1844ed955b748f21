package nn

import (
	"fmt"
	"math/rand"

	"mixnn/internal/tensor"
)

// Conv2D is a 2-D convolution over CHW inputs, lowered to matrix products
// via im2col. Weights have shape [outC, inC*KH*KW]; bias has shape [outC].
// Batch rows are flat CHW volumes; the output rows are flat
// outC×outH×outW volumes.
type Conv2D struct {
	name string
	geom tensor.ConvGeom
	outC int

	w, b   *tensor.Tensor
	wg, bg *tensor.Tensor

	cacheCols []*tensor.Tensor // per-sample im2col matrices from last training forward
}

// NewConv2D constructs a convolution layer with He-normal weights.
func NewConv2D(name string, geom tensor.ConvGeom, outC int, rng *rand.Rand) *Conv2D {
	if err := geom.Validate(); err != nil {
		panic(fmt.Sprintf("nn: Conv2D %q: %v", name, err))
	}
	if outC <= 0 {
		panic(fmt.Sprintf("nn: Conv2D %q has non-positive output channels", name))
	}
	fanIn := geom.InC * geom.KH * geom.KW
	return &Conv2D{
		name: name,
		geom: geom,
		outC: outC,
		w:    tensor.New(outC, fanIn).HeNormal(rng, fanIn),
		b:    tensor.New(outC),
		wg:   tensor.New(outC, fanIn),
		bg:   tensor.New(outC),
	}
}

var _ Layer = (*Conv2D)(nil)

// Name implements Layer.
func (c *Conv2D) Name() string { return c.name }

// InDim returns the flat input width (inC*inH*inW).
func (c *Conv2D) InDim() int { return c.geom.InC * c.geom.InH * c.geom.InW }

// OutDim returns the flat output width (outC*outH*outW).
func (c *Conv2D) OutDim() int { return c.outC * c.geom.OutH() * c.geom.OutW() }

// Forward implements Layer.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	inDim := c.InDim()
	if x.Rank() != 2 || x.Dim(1) != inDim {
		panic(fmt.Sprintf("nn: Conv2D %q expects [N,%d], got %v", c.name, inDim, x.Shape()))
	}
	n := x.Dim(0)
	outHW := c.geom.OutH() * c.geom.OutW()
	y := tensor.New(n, c.OutDim())
	if train {
		c.cacheCols = make([]*tensor.Tensor, n)
	}
	for i := 0; i < n; i++ {
		img := x.Data()[i*inDim : (i+1)*inDim]
		cols := tensor.Im2Col(img, c.geom)
		if train {
			c.cacheCols[i] = cols
		}
		out := tensor.MatMul(c.w, cols) // [outC, outHW]
		od, bd := out.Data(), c.b.Data()
		for oc := 0; oc < c.outC; oc++ {
			row := od[oc*outHW : (oc+1)*outHW]
			for p := range row {
				row[p] += bd[oc]
			}
		}
		copy(y.Data()[i*c.OutDim():(i+1)*c.OutDim()], od)
	}
	return y
}

// Backward implements Layer.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if c.cacheCols == nil {
		panic(fmt.Sprintf("nn: Conv2D %q Backward without training Forward", c.name))
	}
	n := grad.Dim(0)
	if n != len(c.cacheCols) {
		panic(fmt.Sprintf("nn: Conv2D %q gradient batch %d does not match cached batch %d", c.name, n, len(c.cacheCols)))
	}
	outHW := c.geom.OutH() * c.geom.OutW()
	inDim := c.InDim()
	dx := tensor.New(n, inDim)
	bgd := c.bg.Data()
	for i := 0; i < n; i++ {
		dyMat, err := tensor.FromSlice(grad.Data()[i*c.OutDim():(i+1)*c.OutDim()], c.outC, outHW)
		if err != nil {
			panic(err)
		}
		// dW += dy·colsᵀ ; db += row sums of dy ; dcols = Wᵀ·dy.
		c.wg.Add(tensor.MatMulTB(dyMat, c.cacheCols[i]))
		dd := dyMat.Data()
		for oc := 0; oc < c.outC; oc++ {
			s := 0.0
			for _, v := range dd[oc*outHW : (oc+1)*outHW] {
				s += v
			}
			bgd[oc] += s
		}
		dcols := tensor.MatMulTA(c.w, dyMat)
		copy(dx.Data()[i*inDim:(i+1)*inDim], tensor.Col2Im(dcols, c.geom))
	}
	return dx
}

// Params implements Layer.
func (c *Conv2D) Params() []*tensor.Tensor { return []*tensor.Tensor{c.w, c.b} }

// Grads implements Layer.
func (c *Conv2D) Grads() []*tensor.Tensor { return []*tensor.Tensor{c.wg, c.bg} }
