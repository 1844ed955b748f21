package tensor

import "fmt"

// MatMul returns the matrix product a·b for 2-D tensors
// a [m,k] and b [k,n], producing [m,n].
//
// The kernel uses i-k-j loop ordering so the innermost loop walks both the
// output row and the b row contiguously, which is the cache-friendly
// ordering for row-major storage.
func MatMul(a, b *Tensor) *Tensor {
	m, k, n := check2D(a, b, false, false)
	out := New(m, n)
	ad, bd, od := a.data, b.data, out.data
	for i := 0; i < m; i++ {
		arow := ad[i*k : (i+1)*k]
		orow := od[i*n : (i+1)*n]
		for p, av := range arow {
			if av == 0 {
				continue
			}
			brow := bd[p*n : (p+1)*n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// MatMulTA returns aᵀ·b for a [k,m] and b [k,n], producing [m,n], without
// materialising the transpose.
func MatMulTA(a, b *Tensor) *Tensor {
	k, m, n := check2D(a, b, true, false)
	out := New(m, n)
	ad, bd, od := a.data, b.data, out.data
	for p := 0; p < k; p++ {
		arow := ad[p*m : (p+1)*m]
		brow := bd[p*n : (p+1)*n]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			orow := od[i*n : (i+1)*n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// MatMulTB returns a·bᵀ for a [m,k] and b [n,k], producing [m,n], without
// materialising the transpose.
func MatMulTB(a, b *Tensor) *Tensor {
	m, k, n := check2D(a, b, false, true)
	out := New(m, n)
	ad, bd, od := a.data, b.data, out.data
	for i := 0; i < m; i++ {
		arow := ad[i*k : (i+1)*k]
		orow := od[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := bd[j*k : (j+1)*k]
			s := 0.0
			for p, av := range arow {
				s += av * brow[p]
			}
			orow[j] = s
		}
	}
	return out
}

// check2D validates operand ranks and inner dimensions for the three matmul
// variants and returns (m, k, n) where the product is [m,n] with inner
// dimension k. transA/transB indicate which operand is logically transposed.
func check2D(a, b *Tensor, transA, transB bool) (int, int, int) {
	if len(a.shape) != 2 || len(b.shape) != 2 {
		panic(fmt.Sprintf("tensor: matmul requires rank-2 operands, got %v and %v", a.shape, b.shape))
	}
	am, ak := a.shape[0], a.shape[1]
	if transA {
		am, ak = ak, am
	}
	bk, bn := b.shape[0], b.shape[1]
	if transB {
		bk, bn = bn, bk
	}
	if ak != bk {
		panic(fmt.Sprintf("tensor: matmul inner dimension mismatch: %v x %v (transA=%v transB=%v)", a.shape, b.shape, transA, transB))
	}
	if transA {
		// MatMulTA returns (k, m, n) so the caller loops over k first.
		return ak, am, bn
	}
	return am, ak, bn
}
