package tensor

import "fmt"

// Cache-blocked f64 GEMM kernels over row-major slices. These back the
// im2col convolution path in internal/nn; all three transpose variants the
// conv forward/backward passes need are provided. The kernels write into
// caller-owned output buffers so steady-state training performs no heap
// allocation.
//
// Blocking: the j (column) dimension is tiled so the C and B panels
// touched by the inner loops stay cache-resident, and the k (reduction)
// dimension is processed in panels of four with an unrolled inner loop, so
// each pass over a C row amortizes four contiguous B rows.

const (
	// gemmNC is the column-panel width: a 512-column f64 panel of C is
	// 4 KiB, comfortably L1-resident alongside the four B rows streamed
	// against it.
	gemmNC = 512
	// gemmKC is the reduction-panel depth bounding the B panel working set
	// (gemmKC × gemmNC × 8 B = 512 KiB worst case, L2-resident).
	gemmKC = 128
)

func gemmCheck(name string, a, b, c []float64, la, lb, lc int) {
	if len(a) < la || len(b) < lb || len(c) < lc {
		panic(fmt.Sprintf("tensor: %s buffer lengths (%d,%d,%d), need at least (%d,%d,%d)",
			name, len(a), len(b), len(c), la, lb, lc))
	}
}

// GemmNN computes C = A·B, or C += A·B when acc is true.
// A is m×k, B is k×n, C is m×n, all row-major.
func GemmNN(m, n, k int, a, b, c []float64, acc bool) {
	gemmCheck("GemmNN", a, b, c, m*k, k*n, m*n)
	if !acc {
		clear(c[:m*n])
	}
	if n == 1 {
		// Matrix–vector fast path (Dense layers): one four-accumulator
		// dot product per output row instead of width-1 panel sweeps.
		for i := 0; i < m; i++ {
			c[i] += dotLanes(a[i*k:i*k+k], b)
		}
		return
	}
	for j0 := 0; j0 < n; j0 += gemmNC {
		j1 := min(j0+gemmNC, n)
		for k0 := 0; k0 < k; k0 += gemmKC {
			k1 := min(k0+gemmKC, k)
			for i := 0; i < m; i++ {
				arow := a[i*k : i*k+k]
				crow := c[i*n+j0 : i*n+j1]
				kk := k0
				for ; kk+3 < k1; kk += 4 {
					axpy4(crow, b[kk*n+j0:], b[(kk+1)*n+j0:], b[(kk+2)*n+j0:], b[(kk+3)*n+j0:],
						arow[kk], arow[kk+1], arow[kk+2], arow[kk+3])
				}
				for ; kk < k1; kk++ {
					axpy1(crow, b[kk*n+j0:], arow[kk])
				}
			}
		}
	}
}

// MatVecBatch computes Y = X·Aᵀ for a batch of row vectors: A is m×k
// row-major (one weight row per output), X is nb×k (one input row per
// sample), Y is nb×m. Each output element is evaluated with exactly the
// four-accumulator dot product of GemmNN's n==1 matrix–vector fast path,
// so row bi of Y is bit-identical to GemmNN(m, 1, k, a, x_bi, y_bi, false);
// the output-row-outer/sample-inner nest streams each weight row once
// across the whole batch instead of once per sample. This is the batched
// Dense-layer kernel.
func MatVecBatch(m, k, nb int, a, x, y []float64) {
	gemmCheck("MatVecBatch", a, x, y, m*k, nb*k, nb*m)
	for i := 0; i < m; i++ {
		arow := a[i*k : i*k+k]
		for bi := 0; bi < nb; bi++ {
			y[bi*m+i] = dotLanes(arow, x[bi*k:bi*k+k])
		}
	}
}

// GemmNT computes C = A·Bᵀ, or C += A·Bᵀ when acc is true.
// A is m×k, B is n×k (used transposed), C is m×n, all row-major. Each C
// element is a dot product of two contiguous rows; see GemmNTStrided for
// the accumulation pattern.
func GemmNT(m, n, k int, a, b, c []float64, acc bool) {
	GemmNTStrided(m, n, k, a, k, b, k, c, acc)
}

// GemmNTStrided is GemmNT with explicit row strides: row i of A starts at
// a[i*lda], row j of B at b[j*ldb] (both rows still contiguous and k long);
// C is m×n row-major as in GemmNT. The per-element accumulator pattern
// depends only on (n, k) and the column index, so for equal (m, n, k) the
// result is bit-identical to GemmNT on densely packed operands.
//
// B rows are taken in panels of jc so one panel is reused across the whole
// i sweep (~256 KiB of B per panel). Within a panel, aligned groups of four
// columns get a strictly sequential single-accumulator dot per element
// (dot4x4, four output rows at a time), and the ≤3 leftover columns get the
// four-lane interleaved dot.
func GemmNTStrided(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, acc bool) {
	if lda < k || ldb < k {
		panic(fmt.Sprintf("tensor: GemmNTStrided strides (%d,%d) below k=%d", lda, ldb, k))
	}
	gemmCheck("GemmNTStrided", a, b, c, (m-1)*lda+k, (n-1)*ldb+k, m*n)
	if !acc {
		clear(c[:m*n])
	}
	if k == 1 {
		// Rank-1 update fast path (Dense dW with a single column): a plain
		// outer product streaming c, and b too when it is dense.
		for i := 0; i < m; i++ {
			av := a[i*lda]
			crow := c[i*n : i*n+n]
			if ldb == 1 {
				axpy1(crow, b, av)
				continue
			}
			for j := range crow {
				crow[j] += av * b[j*ldb]
			}
		}
		return
	}
	var rows, cols [4][]float64
	var s [16]float64
	jc := max(4, 32768/k)
	for j0 := 0; j0 < n; j0 += jc {
		j1 := min(j0+jc, n)
		j4 := j0 + (j1-j0)&^3
		for i0 := 0; i0 < m; i0 += 4 {
			nr := min(4, m-i0)
			for r := 0; r < nr; r++ {
				rows[r] = a[(i0+r)*lda:][:k]
			}
			for j := j0; j < j4; j += 4 {
				for q := range cols {
					cols[q] = b[(j+q)*ldb:][:k]
				}
				dot4x4(rows[:nr], &cols, &s)
				addSums(c[i0*n+j:], n, nr, &s)
			}
		}
		for j := j4; j < j1; j++ {
			brow := b[j*ldb:][:k]
			for i := 0; i < m; i++ {
				c[i*n+j] += dotLanes(a[i*lda:][:k], brow)
			}
		}
	}
}

// addSums adds the nr×4 block of dot4x4 sums into C, block row r starting
// at c[r*ldc].
func addSums(c []float64, ldc, nr int, s *[16]float64) {
	for r := 0; r < nr; r++ {
		crow := c[r*ldc:][:4]
		crow[0] += s[4*r]
		crow[1] += s[4*r+1]
		crow[2] += s[4*r+2]
		crow[3] += s[4*r+3]
	}
}

// GemmTN computes C = Aᵀ·B, or C += Aᵀ·B when acc is true.
// A is k×m (used transposed), B is k×n, C is m×n, all row-major. The
// reduction runs over rows of A and B, so the inner loop streams
// contiguous B and C rows; only the four per-panel A loads are strided.
func GemmTN(m, n, k int, a, b, c []float64, acc bool) {
	gemmCheck("GemmTN", a, b, c, k*m, k*n, m*n)
	if !acc {
		clear(c[:m*n])
	}
	if n == 1 {
		// Transposed matrix–vector fast path (Dense dX): accumulate scaled
		// rows of A so every load is contiguous instead of striding down
		// A's columns one element at a time.
		for l := 0; l < k; l++ {
			axpy1(c[:m], a[l*m:], b[l])
		}
		return
	}
	for j0 := 0; j0 < n; j0 += gemmNC {
		j1 := min(j0+gemmNC, n)
		l := 0
		for ; l+3 < k; l += 4 {
			b0 := b[l*n+j0 : l*n+j1]
			b1 := b[(l+1)*n+j0 : (l+1)*n+j1]
			b2 := b[(l+2)*n+j0 : (l+2)*n+j1]
			b3 := b[(l+3)*n+j0 : (l+3)*n+j1]
			for i := 0; i < m; i++ {
				axpy4(c[i*n+j0:i*n+j1], b0, b1, b2, b3,
					a[l*m+i], a[(l+1)*m+i], a[(l+2)*m+i], a[(l+3)*m+i])
			}
		}
		for ; l < k; l++ {
			brow := b[l*n+j0 : l*n+j1]
			for i := 0; i < m; i++ {
				axpy1(c[i*n+j0:i*n+j1], brow, a[l*m+i])
			}
		}
	}
}
