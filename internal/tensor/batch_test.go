package tensor

import (
	"math/rand"
	"strconv"
	"testing"
)

// GemmNTStrided with dense strides (lda = ldb = k) must be bit-identical to
// GemmNT, and with batched strides it must reproduce per-sample GemmNT
// calls exactly — the contract that keeps the batched conv dW accumulation
// byte-identical to the sequential trajectory loop.
func TestGemmNTStridedMatchesGemmNT(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, sz := range []struct{ m, n, k int }{
		{2, 81, 37}, {4, 18, 100}, {1, 1, 1}, {16, 144, 256}, {3, 7, 1}, {5, 9, 4096},
	} {
		t.Run(strconv.Itoa(sz.m)+"x"+strconv.Itoa(sz.n)+"x"+strconv.Itoa(sz.k), func(t *testing.T) {
			a := make([]float64, sz.m*sz.k)
			b := make([]float64, sz.n*sz.k)
			for i := range a {
				a[i] = rng.NormFloat64()
			}
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			want := make([]float64, sz.m*sz.n)
			got := make([]float64, sz.m*sz.n)
			for i := range want {
				want[i] = rng.NormFloat64()
				got[i] = want[i]
			}
			GemmNT(sz.m, sz.n, sz.k, a, b, want, true)
			GemmNTStrided(sz.m, sz.n, sz.k, a, sz.k, b, sz.k, got, true)
			for i, v := range got {
				if v != want[i] {
					t.Fatalf("dense strides elem %d: got %v want %v", i, v, want[i])
				}
			}

			// Strided operands: embed each row at a wider pitch and check
			// against the dense call.
			lda, ldb := sz.k+5, sz.k+11
			as := make([]float64, sz.m*lda)
			bs := make([]float64, sz.n*ldb)
			for i := range as {
				as[i] = 1e30 // poison the gaps
			}
			for i := range bs {
				bs[i] = 1e30
			}
			for i := 0; i < sz.m; i++ {
				copy(as[i*lda:i*lda+sz.k], a[i*sz.k:(i+1)*sz.k])
			}
			for j := 0; j < sz.n; j++ {
				copy(bs[j*ldb:j*ldb+sz.k], b[j*sz.k:(j+1)*sz.k])
			}
			clear(got)
			GemmNTStrided(sz.m, sz.n, sz.k, as, lda, bs, ldb, got, false)
			clear(want)
			GemmNT(sz.m, sz.n, sz.k, a, b, want, false)
			for i, v := range got {
				if v != want[i] {
					t.Fatalf("wide strides elem %d: got %v want %v", i, v, want[i])
				}
			}
		})
	}
}

// MatVecBatch must be bit-identical, per sample, to GemmNN's n==1
// matrix–vector fast path (the kernel Dense.Forward uses).
func TestMatVecBatchMatchesGemmNN(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, sz := range []struct{ m, k, nb int }{
		{7, 13, 4}, {1, 1, 1}, {32, 50, 8}, {4, 3, 5},
	} {
		t.Run(strconv.Itoa(sz.m)+"x"+strconv.Itoa(sz.k)+"b"+strconv.Itoa(sz.nb), func(t *testing.T) {
			a := make([]float64, sz.m*sz.k)
			x := make([]float64, sz.nb*sz.k)
			for i := range a {
				a[i] = rng.NormFloat64()
			}
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			y := make([]float64, sz.nb*sz.m)
			MatVecBatch(sz.m, sz.k, sz.nb, a, x, y)
			want := make([]float64, sz.m)
			for bi := 0; bi < sz.nb; bi++ {
				GemmNN(sz.m, 1, sz.k, a, x[bi*sz.k:(bi+1)*sz.k], want, false)
				for i, v := range want {
					if y[bi*sz.m+i] != v {
						t.Fatalf("sample %d out %d: got %v want %v", bi, i, y[bi*sz.m+i], v)
					}
				}
			}
		})
	}
}

// AddOuter and MatTVec must be bit-identical to the GEMM fast paths the
// per-sample Dense backward used: GemmNT with k == 1 (the rank-1 weight
// gradient) and GemmTN with n == 1 (the input gradient).
func TestDenseKernelsMatchGemm(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, sz := range []struct{ m, n int }{{1, 1}, {7, 13}, {32, 50}, {4, 3}} {
		a, b := randSlice(rng, sz.m), randSlice(rng, sz.n)
		got := randSlice(rng, sz.m*sz.n) // accumulates
		want := append([]float64(nil), got...)
		AddOuter(sz.m, sz.n, a, b, got)
		GemmNT(sz.m, sz.n, 1, a, b, want, true)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("AddOuter %dx%d elem %d: got %v want %v", sz.m, sz.n, i, got[i], want[i])
			}
		}
		w, x := randSlice(rng, sz.n*sz.m), randSlice(rng, sz.n)
		y := randSlice(rng, sz.m) // overwritten
		wantY := make([]float64, sz.m)
		MatTVec(sz.m, sz.n, w, x, y)
		GemmTN(sz.m, 1, sz.n, w, x, wantY, false)
		for i := range wantY {
			if y[i] != wantY[i] {
				t.Fatalf("MatTVec %dx%d elem %d: got %v want %v", sz.m, sz.n, i, y[i], wantY[i])
			}
		}
	}
}
