package nn

import (
	"fmt"

	"mixnn/internal/tensor"
)

// ReLU applies max(0, x) element-wise.
type ReLU struct {
	name      string
	cacheMask []bool
}

// NewReLU constructs a ReLU activation layer.
func NewReLU(name string) *ReLU { return &ReLU{name: name} }

var _ Layer = (*ReLU)(nil)

// Name implements Layer.
func (r *ReLU) Name() string { return r.name }

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	y := x.Clone()
	if train {
		r.cacheMask = make([]bool, y.Size())
	}
	for i, v := range y.Data() {
		if v > 0 {
			if train {
				r.cacheMask[i] = true
			}
		} else {
			y.Data()[i] = 0
		}
	}
	return y
}

// Backward implements Layer.
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if r.cacheMask == nil {
		panic(fmt.Sprintf("nn: ReLU %q Backward without training Forward", r.name))
	}
	if grad.Size() != len(r.cacheMask) {
		panic(fmt.Sprintf("nn: ReLU %q gradient size %d does not match cached %d", r.name, grad.Size(), len(r.cacheMask)))
	}
	dx := grad.Clone()
	for i := range dx.Data() {
		if !r.cacheMask[i] {
			dx.Data()[i] = 0
		}
	}
	return dx
}

// Params implements Layer (stateless).
func (r *ReLU) Params() []*tensor.Tensor { return nil }

// Grads implements Layer (stateless).
func (r *ReLU) Grads() []*tensor.Tensor { return nil }

// Flatten is an identity layer kept for architectural readability when
// porting conv→dense transitions (all batch rows are already flat).
type Flatten struct{ name string }

// NewFlatten constructs a Flatten layer.
func NewFlatten(name string) *Flatten { return &Flatten{name: name} }

var _ Layer = (*Flatten)(nil)

// Name implements Layer.
func (f *Flatten) Name() string { return f.name }

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor { return x }

// Backward implements Layer.
func (f *Flatten) Backward(grad *tensor.Tensor) *tensor.Tensor { return grad }

// Params implements Layer (stateless).
func (f *Flatten) Params() []*tensor.Tensor { return nil }

// Grads implements Layer (stateless).
func (f *Flatten) Grads() []*tensor.Tensor { return nil }
