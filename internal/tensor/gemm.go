package tensor

import "fmt"

// Dense-layer kernels over row-major slices. Each is the exact accumulation
// pattern of one of the lowered GEMM's vector fast paths (the GemmNN /
// GemmNT / GemmTN oracles in lowered_test.go pin them bit for bit), so a
// batched fully connected layer reproduces the per-sample layer exactly.
// The kernels write into caller-owned buffers so steady-state training
// performs no heap allocation.

// gemmKC is the lowered GEMM's reduction-panel depth. ConvFwdPad reproduces
// its panel boundaries, which fix where each output element's grouped
// four-term chains start.
const gemmKC = 128

func gemmCheck(name string, a, b, c []float64, la, lb, lc int) {
	if len(a) < la || len(b) < lb || len(c) < lc {
		panic(fmt.Sprintf("tensor: %s buffer lengths (%d,%d,%d), need at least (%d,%d,%d)",
			name, len(a), len(b), len(c), la, lb, lc))
	}
}

// MatVecBatch computes Y = X·Aᵀ for a batch of row vectors: A is m×k
// row-major (one weight row per output), X is nb×k (one input row per
// sample), Y is nb×m. Each output element is one four-accumulator dot
// product, so row bi of Y is bit-identical to GemmNN(m, 1, k, a, x_bi,
// y_bi, false); the output-row-outer/sample-inner nest streams each weight
// row once across the whole batch. This is the Dense forward kernel.
func MatVecBatch(m, k, nb int, a, x, y []float64) {
	gemmCheck("MatVecBatch", a, x, y, m*k, nb*k, nb*m)
	for i := 0; i < m; i++ {
		arow := a[i*k : i*k+k]
		for bi := 0; bi < nb; bi++ {
			y[bi*m+i] = dotLanes(arow, x[bi*k:bi*k+k])
		}
	}
}

// AddOuter accumulates the rank-1 update C += a·bᵀ: a has m elements, b has
// n, C is m×n row-major. Bit-identical to GemmNT(m, n, 1, a, b, c, true);
// this is the Dense weight-gradient kernel for one sample.
func AddOuter(m, n int, a, b, c []float64) {
	gemmCheck("AddOuter", a, b, c, m, n, m*n)
	for i := 0; i < m; i++ {
		axpy1(c[i*n:i*n+n], b, a[i])
	}
}

// MatTVec computes y = Aᵀ·x: A is k×m row-major, x has k elements, y has m
// and is overwritten. It accumulates scaled rows of A so every load is
// contiguous; bit-identical to GemmTN(m, 1, k, a, x, y, false). This is the
// Dense input-gradient kernel for one sample.
func MatTVec(m, k int, a, x, y []float64) {
	gemmCheck("MatTVec", a, x, y, k*m, k, m)
	clear(y[:m])
	for l := 0; l < k; l++ {
		axpy1(y[:m], a[l*m:], x[l])
	}
}
