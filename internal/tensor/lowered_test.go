package tensor

import "fmt"

// The lowered convolution: im2col/col2im plus cache-blocked GEMM. This was
// the production conv path before the fused padded-plane kernels replaced
// it; it is kept here, in test code only, as the oracle the fused kernels
// (conv_fused.go) and the Dense kernels (gemm.go) must match bit for bit.
//
// Im2col/Col2im lower a stride-1, zero-padded 2-D convolution to matrix
// multiplication: each output position becomes one column holding the
// receptive-field patch feeding it, so conv forward is a single GEMM of the
// (outC, inC·k·k) weight matrix against the (inC·k·k, h·w) column matrix.
//
// GEMM blocking: the j (column) dimension is tiled so the C and B panels
// touched by the inner loops stay cache-resident, and the k (reduction)
// dimension is processed in panels of four with an unrolled inner loop.

// gemmNC is the column-panel width: a 512-column f64 panel of C is 4 KiB.
const gemmNC = 512

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

func im2colCheck(name string, x, cols []float64, inC, h, w, k, pad int) {
	if inC < 1 || h < 1 || w < 1 || k < 1 || pad < 0 {
		panic(fmt.Sprintf("tensor: %s invalid geometry inC=%d h=%d w=%d k=%d pad=%d",
			name, inC, h, w, k, pad))
	}
	if len(x) < inC*h*w || len(cols) < inC*k*k*h*w {
		panic(fmt.Sprintf("tensor: %s buffers (%d,%d), need (%d,%d)",
			name, len(x), len(cols), inC*h*w, inC*k*k*h*w))
	}
}

// Im2col unrolls the (inC, h, w) feature map x into the (inC·k·k, h·w)
// column matrix cols for a stride-1 convolution with the given zero
// padding (output spatial size equals input size when pad == (k-1)/2).
// Row (ic·k+ky)·k+kx of cols holds, for every output position (oy, ox),
// x[ic, oy+ky-pad, ox+kx-pad], or zero when that index falls outside the
// map.
func Im2col(x []float64, inC, h, w, k, pad int, cols []float64) {
	im2colCheck("Im2col", x, cols, inC, h, w, k, pad)
	hw := h * w
	r := 0
	for ic := 0; ic < inC; ic++ {
		xc := x[ic*hw : (ic+1)*hw]
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				dst := cols[r*hw : (r+1)*hw]
				// Output columns whose sampled ix = ox+kx-pad is in range.
				ox0 := max(0, pad-kx)
				ox1 := min(w, w+pad-kx)
				for oy := 0; oy < h; oy++ {
					iy := oy + ky - pad
					drow := dst[oy*w : (oy+1)*w]
					if iy < 0 || iy >= h || ox0 >= ox1 {
						clear(drow)
						continue
					}
					clear(drow[:ox0])
					copy(drow[ox0:ox1], xc[iy*w+ox0+kx-pad:iy*w+ox1+kx-pad])
					clear(drow[ox1:])
				}
				r++
			}
		}
	}
}

// Col2im is the adjoint of Im2col: it scatter-adds the (inC·k·k, h·w)
// column matrix cols back into the (inC, h, w) map x, overwriting x. It
// maps column-matrix gradients back to input-map gradients in the conv
// backward pass.
func Col2im(cols []float64, inC, h, w, k, pad int, x []float64) {
	im2colCheck("Col2im", x, cols, inC, h, w, k, pad)
	hw := h * w
	clear(x[:inC*hw])
	r := 0
	for ic := 0; ic < inC; ic++ {
		xc := x[ic*hw : (ic+1)*hw]
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				src := cols[r*hw : (r+1)*hw]
				ox0 := max(0, pad-kx)
				ox1 := min(w, w+pad-kx)
				for oy := 0; oy < h; oy++ {
					iy := oy + ky - pad
					if iy < 0 || iy >= h || ox0 >= ox1 {
						continue
					}
					srow := src[oy*w+ox0 : oy*w+ox1]
					xrow := xc[iy*w+ox0+kx-pad : iy*w+ox1+kx-pad]
					for j, v := range srow {
						xrow[j] += v
					}
				}
				r++
			}
		}
	}
}
