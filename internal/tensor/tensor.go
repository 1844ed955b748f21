// Package tensor implements dense float64 tensors and the small set of
// linear-algebra kernels needed to train neural networks: element-wise
// arithmetic, matrix multiplication (plus transposed variants), reductions,
// random initialisation, and im2col/col2im for convolutions.
//
// Design notes:
//
//   - Tensors are dense, row-major, and always float64.
//   - Shape mismatches are programmer errors, not runtime conditions, so the
//     arithmetic kernels panic with a descriptive message (the same
//     convention as gonum). Anything that parses untrusted input (the wire
//     codec) returns errors instead.
//   - Methods that mutate the receiver return the receiver to allow
//     chaining.
package tensor

import (
	"fmt"
	"math"
	"strings"
)

// Tensor is a dense, row-major float64 tensor.
type Tensor struct {
	shape []int
	data  []float64
}

// New returns a zero-filled tensor with the given shape.
// New() with no arguments returns a scalar-shaped tensor of size 1... it
// does not: at least one dimension is required.
func New(shape ...int) *Tensor {
	n := checkShape(shape)
	return &Tensor{shape: append([]int(nil), shape...), data: make([]float64, n)}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); len(data) must equal the shape's element count.
func FromSlice(data []float64, shape ...int) (*Tensor, error) {
	n := checkShape(shape)
	if len(data) != n {
		return nil, fmt.Errorf("tensor: data length %d does not match shape %v (want %d)", len(data), shape, n)
	}
	return &Tensor{shape: append([]int(nil), shape...), data: data}, nil
}

// View initialises t in place as a view over data with the given shape,
// aliasing BOTH slices (FromSlice copies the shape; View does not). It
// exists for bulk view construction — the slab accumulator materialises
// thousands of row views per round and must not allocate a shape copy
// (or a Tensor box) per tensor — so it trades safety for allocation
// count: the caller guarantees that data and shape outlive t, that
// len(data) matches the shape's element count, and that shape is never
// mutated. Shape mismatches are programmer errors here (the slab layout
// was validated when it was built), so View panics like the arithmetic
// kernels rather than returning an error.
func View(t *Tensor, data []float64, shape []int) {
	n := checkShape(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: view data length %d does not match shape %v (want %d)", len(data), shape, n))
	}
	t.shape = shape
	t.data = data
}

// MustFromSlice is FromSlice that panics on error; for tests and literals.
func MustFromSlice(data []float64, shape ...int) *Tensor {
	t, err := FromSlice(data, shape...)
	if err != nil {
		panic(err)
	}
	return t
}

// Full returns a tensor with every element set to v.
func Full(v float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// Ones returns a tensor of ones.
func Ones(shape ...int) *Tensor { return Full(1, shape...) }

func checkShape(shape []int) int {
	if len(shape) == 0 {
		panic("tensor: empty shape")
	}
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension in shape %v", shape))
		}
		n *= d
	}
	return n
}

// Shape returns a copy of the tensor's shape.
func (t *Tensor) Shape() []int { return append([]int(nil), t.shape...) }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.data) }

// Data returns the underlying storage. The slice is shared with the tensor:
// callers that need an independent copy must Clone first.
func (t *Tensor) Data() []float64 { return t.data }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	return &Tensor{
		shape: append([]int(nil), t.shape...),
		data:  append([]float64(nil), t.data...),
	}
}

// index converts a multi-dimensional index to a flat offset.
func (t *Tensor) index(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index %v does not match rank %d", idx, len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Set assigns the element at the given multi-dimensional index.
func (t *Tensor) Set(v float64, idx ...int) { t.data[t.index(idx)] = v }

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

func (t *Tensor) mustSameSize(o *Tensor, op string) {
	if len(t.data) != len(o.data) {
		panic(fmt.Sprintf("tensor: %s size mismatch: %v vs %v", op, t.shape, o.shape))
	}
}

// Zero sets every element to zero and returns t.
func (t *Tensor) Zero() *Tensor {
	for i := range t.data {
		t.data[i] = 0
	}
	return t
}

// Add adds o element-wise into t and returns t.
func (t *Tensor) Add(o *Tensor) *Tensor {
	t.mustSameSize(o, "Add")
	for i, v := range o.data {
		t.data[i] += v
	}
	return t
}

// Sub subtracts o element-wise from t and returns t.
func (t *Tensor) Sub(o *Tensor) *Tensor {
	t.mustSameSize(o, "Sub")
	for i, v := range o.data {
		t.data[i] -= v
	}
	return t
}

// Scale multiplies every element by alpha and returns t.
func (t *Tensor) Scale(alpha float64) *Tensor {
	for i := range t.data {
		t.data[i] *= alpha
	}
	return t
}

// AddScaled adds alpha*o element-wise into t (axpy) and returns t.
func (t *Tensor) AddScaled(o *Tensor, alpha float64) *Tensor {
	t.mustSameSize(o, "AddScaled")
	for i, v := range o.data {
		t.data[i] += alpha * v
	}
	return t
}

// Apply replaces every element x with f(x) and returns t.
func (t *Tensor) Apply(f func(float64) float64) *Tensor {
	for i, v := range t.data {
		t.data[i] = f(v)
	}
	return t
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements.
func (t *Tensor) Mean() float64 { return t.Sum() / float64(len(t.data)) }

// Max returns the maximum element.
func (t *Tensor) Max() float64 {
	m := math.Inf(-1)
	for _, v := range t.data {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the minimum element.
func (t *Tensor) Min() float64 {
	m := math.Inf(1)
	for _, v := range t.data {
		if v < m {
			m = v
		}
	}
	return m
}

// ArgMaxRows treats t as a 2-D [rows, cols] tensor and returns, for each
// row, the column index of its maximum. Used for batch class predictions.
func (t *Tensor) ArgMaxRows() []int {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: ArgMaxRows requires rank 2, got shape %v", t.shape))
	}
	rows, cols := t.shape[0], t.shape[1]
	out := make([]int, rows)
	for r := 0; r < rows; r++ {
		row := t.data[r*cols : (r+1)*cols]
		best, bestV := 0, math.Inf(-1)
		for c, v := range row {
			if v > bestV {
				best, bestV = c, v
			}
		}
		out[r] = best
	}
	return out
}

// Dot returns the inner product of t and o viewed as flat vectors.
func Dot(a, b *Tensor) float64 {
	a.mustSameSize(b, "Dot")
	s := 0.0
	for i, v := range a.data {
		s += v * b.data[i]
	}
	return s
}

// Norm returns the L2 norm of t viewed as a flat vector.
func (t *Tensor) Norm() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// CosineSimilarity returns the cosine of the angle between a and b viewed
// as flat vectors. Returns 0 if either vector has zero norm.
func CosineSimilarity(a, b *Tensor) float64 {
	na, nb := a.Norm(), b.Norm()
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
}

// EuclideanDistance returns the L2 distance between a and b viewed as flat
// vectors.
func EuclideanDistance(a, b *Tensor) float64 {
	a.mustSameSize(b, "EuclideanDistance")
	s := 0.0
	for i, v := range a.data {
		d := v - b.data[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Equal reports exact element-wise equality (shapes must match too).
func Equal(a, b *Tensor) bool {
	if !a.SameShape(b) {
		return false
	}
	for i, v := range a.data {
		if v != b.data[i] {
			return false
		}
	}
	return true
}

// ApproxEqual reports element-wise equality within absolute tolerance tol.
func ApproxEqual(a, b *Tensor, tol float64) bool {
	if !a.SameShape(b) {
		return false
	}
	for i, v := range a.data {
		if math.Abs(v-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders small tensors fully and large tensors as a summary.
func (t *Tensor) String() string {
	const maxElems = 16
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v", t.shape)
	if len(t.data) <= maxElems {
		fmt.Fprintf(&b, "%v", t.data)
	} else {
		fmt.Fprintf(&b, "[%g %g ... %g] (n=%d)", t.data[0], t.data[1], t.data[len(t.data)-1], len(t.data))
	}
	return b.String()
}
