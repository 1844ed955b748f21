package tensor

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveMatMul is the reference triple loop used to validate the optimised
// kernels.
func naiveMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += a.data[i*k+p] * b.data[p*n+j]
			}
			out.Set(s, i, j)
		}
	}
	return out
}

// transposed is the reference transpose of a 2-D tensor.
func transposed(t *Tensor) *Tensor {
	r, c := t.Dim(0), t.Dim(1)
	out := New(c, r)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			out.data[j*r+i] = t.data[i*c+j]
		}
	}
	return out
}

func TestMatMulSmall(t *testing.T) {
	a := MustFromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := MustFromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	got := MatMul(a, b)
	want := MustFromSlice([]float64{58, 64, 139, 154}, 2, 2)
	if !ApproxEqual(got, want, 1e-12) {
		t.Fatalf("MatMul = %v, want %v", got, want)
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := New(5, 5).RandN(rng, 0, 1)
	id := New(5, 5)
	for i := 0; i < 5; i++ {
		id.Set(1, i, i)
	}
	if !ApproxEqual(MatMul(a, id), a, 1e-12) {
		t.Fatal("A·I != A")
	}
	if !ApproxEqual(MatMul(id, a), a, 1e-12) {
		t.Fatal("I·A != A")
	}
}

func TestMatMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, dims := range [][3]int{{1, 1, 1}, {2, 3, 4}, {7, 5, 3}, {16, 16, 16}, {1, 10, 1}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := New(m, k).RandN(rng, 0, 1)
		b := New(k, n).RandN(rng, 0, 1)
		if !ApproxEqual(MatMul(a, b), naiveMatMul(a, b), 1e-9) {
			t.Fatalf("MatMul mismatch at dims %v", dims)
		}
	}
}

func TestMatMulTAMatchesTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := New(6, 4).RandN(rng, 0, 1) // logical aᵀ is 4x6
	b := New(6, 5).RandN(rng, 0, 1)
	got := MatMulTA(a, b)
	want := MatMul(transposed(a), b)
	if !ApproxEqual(got, want, 1e-9) {
		t.Fatal("MatMulTA != Transpose(a)·b")
	}
}

func TestMatMulTBMatchesTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := New(3, 4).RandN(rng, 0, 1)
	b := New(5, 4).RandN(rng, 0, 1) // logical bᵀ is 4x5
	got := MatMulTB(a, b)
	want := MatMul(a, transposed(b))
	if !ApproxEqual(got, want, 1e-9) {
		t.Fatal("MatMulTB != a·Transpose(b)")
	}
}

func TestMatMulPanics(t *testing.T) {
	tests := []struct {
		name string
		fn   func()
	}{
		{"inner mismatch", func() { MatMul(New(2, 3), New(4, 2)) }},
		{"rank", func() { MatMul(New(2, 3, 1), New(3, 2)) }},
		{"TA mismatch", func() { MatMulTA(New(2, 3), New(3, 2)) }},
		{"TB mismatch", func() { MatMulTB(New(2, 3), New(2, 4)) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("did not panic")
				}
			}()
			tt.fn()
		})
	}
}

// Property: (A·B)ᵀ == Bᵀ·Aᵀ for random small matrices.
func TestQuickMatMulTransposeIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	f := func(m8, k8, n8 uint8) bool {
		m, k, n := int(m8%6)+1, int(k8%6)+1, int(n8%6)+1
		a := New(m, k).RandN(rng, 0, 1)
		b := New(k, n).RandN(rng, 0, 1)
		lhs := transposed(MatMul(a, b))
		rhs := MatMul(transposed(b), transposed(a))
		return ApproxEqual(lhs, rhs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
