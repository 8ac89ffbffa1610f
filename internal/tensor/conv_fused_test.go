package tensor

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// edgeFloat draws from a mix that stresses IEEE corner cases: ordinary
// normals, signed zeros, subnormals, tiny normals whose products underflow,
// and huge magnitudes whose products and sums overflow to ±Inf (and then
// NaN from Inf-Inf). NaN operands appear only when withNaN is set.
func edgeFloat(rng *rand.Rand, withNaN bool) float64 {
	sign := 1.0
	if rng.Intn(2) == 0 {
		sign = -1
	}
	switch rng.Intn(10) {
	case 0:
		return math.Copysign(0, sign)
	case 1:
		return sign * math.Float64frombits(1+rng.Uint64()&(1<<52-2)) // subnormal
	case 2:
		return sign * math.Ldexp(1+rng.Float64(), -1000-rng.Intn(20))
	case 3:
		return sign * math.Ldexp(1+rng.Float64(), 500+rng.Intn(523))
	case 4:
		if withNaN {
			return math.NaN()
		}
	}
	return rng.NormFloat64()
}

// convResult is one fused kernel's output next to its lowered oracle's, both
// in compact layout.
type convResult struct {
	name      string
	got, want []float64
}

// runConvFusedAndLowered runs ConvFwdPad, ConvDWPad and ConvDXPad and their
// lowered oracles (Im2col + GemmNN, GemmNT over the cols, GemmTN + Col2im)
// on the same operands. dw0 seeds the accumulated weight gradient. The fused
// kernels see non-trivial strides and poisoned scratch, so a kernel that
// reads past its planes or trusts its scratch shows up as a mismatch.
func runConvFusedAndLowered(inC, outC, h, w, k int, x, weights, grad, dw0 []float64) [3]convResult {
	hw := h * w
	pad := (k - 1) / 2
	ickk := inC * k * k
	hp, wp := h+k-1, w+k-1

	// Lowered oracles.
	cols := make([]float64, ickk*hw)
	Im2col(x, inC, h, w, k, pad, cols)
	wantOut := make([]float64, outC*hw)
	GemmNN(outC, hw, ickk, weights, cols, wantOut, false)
	wantDW := append([]float64(nil), dw0...)
	GemmNT(outC, ickk, hw, grad, cols, wantDW, true)
	dcols := make([]float64, ickk*hw)
	GemmTN(ickk, hw, outC, weights, grad, dcols, false)
	wantDX := make([]float64, inC*hw)
	Col2im(dcols, inC, h, w, k, pad, wantDX)

	// Fused kernels on padded planes, with non-trivial strides.
	xpStride := hp*wp + 3
	xp := make([]float64, inC*xpStride)
	for i := range xp {
		xp[i] = 1e30 // poison the stride gaps
	}
	for ic := 0; ic < inC; ic++ {
		PadPlane(x[ic*hw:(ic+1)*hw], h, w, k, xp[ic*xpStride:ic*xpStride+hp*wp])
	}
	oStride := hw + 5
	out := make([]float64, outC*oStride)
	gs := make([]float64, outC*oStride)
	for oc := 0; oc < outC; oc++ {
		copy(gs[oc*oStride:oc*oStride+hw], grad[oc*hw:(oc+1)*hw])
	}
	pout := make([]float64, (h-1)*wp+w)
	for i := range pout {
		pout[i] = 1e30 // scratch must be clobbered, not trusted
	}
	ConvFwdPad(weights, outC, inC, xp, xpStride, h, w, k, out, oStride, pout)
	lead := k - 1 - pad
	gpadStride := hp*wp + 2
	gpad := make([]float64, outC*gpadStride)
	for i := range gpad {
		gpad[i] = 1e30 // PadPlaneLead must overwrite rows AND borders
	}
	for oc := 0; oc < outC; oc++ {
		PadPlaneLead(gs[oc*oStride:], h, w, k, lead, gpad[oc*gpadStride:])
	}
	// The gapped view ConvDWPad walks is the padded planes' interior.
	gp := gpad[lead*wp+lead:]
	rowBuf := make([]float64, hw)
	gotDW := append([]float64(nil), dw0...)
	ConvDWPad(gs, oStride, gp, gpadStride, xp, xpStride, outC, inC, h, w, k, gotDW, rowBuf)
	dxStride := hw + 7
	dx := make([]float64, inC*dxStride)
	for i := range dx {
		dx[i] = 1e30 // ConvDXPad must overwrite its planes
	}
	dxScratch := make([]float64, 2*((h-1)*wp+w))
	for i := range dxScratch {
		dxScratch[i] = 1e30 // scratch must be clobbered, not trusted
	}
	ConvDXPad(weights, outC, inC, gpad, gpadStride, h, w, k, dx, dxStride, dxScratch)

	compact := func(src []float64, rows, stride int) []float64 {
		dst := make([]float64, rows*hw)
		for r := 0; r < rows; r++ {
			copy(dst[r*hw:(r+1)*hw], src[r*stride:r*stride+hw])
		}
		return dst
	}
	return [3]convResult{
		{"forward", compact(out, outC, oStride), wantOut},
		{"dW", gotDW, wantDW},
		{"dX", compact(dx, inC, dxStride), wantDX},
	}
}

// TestConvFusedMatchesLowered pins the fused conv kernels to the lowered
// im2col/GEMM path bit-for-bit, across kernel sizes (including the even
// stem-sized kernels), channel counts that exercise both GEMM dot flavors
// and the four-lane group leftovers, and spatial sizes where w is not a
// multiple of four (the 10×10 net's 25×25 pooled planes).
func TestConvFusedMatchesLowered(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, sz := range []struct{ inC, outC, h, w, k int }{
		{1, 2, 16, 16, 8},  // 8×8 stem: even kernel, single input channel
		{1, 2, 15, 15, 10}, // 10×10-style stem on an odd plane
		{2, 4, 12, 12, 3},
		{4, 8, 6, 7, 3}, // non-square, w ≡ 3 (mod 4)
		{8, 16, 5, 5, 3},
		{16, 2, 5, 5, 3}, // head conv shape: outC below the 4-lane group
		{3, 3, 4, 4, 1},  // 1×1 conv
		{5, 1, 9, 9, 3},  // single output channel: all-leftover GemmTN rows
		{2, 4, 2, 33, 5}, // ickk=50 ≡ 2 (mod 4): trailing singles in GemmNN
	} {
		name := strconv.Itoa(sz.inC) + "c" + strconv.Itoa(sz.outC) + "_" +
			strconv.Itoa(sz.h) + "x" + strconv.Itoa(sz.w) + "k" + strconv.Itoa(sz.k)
		t.Run(name, func(t *testing.T) {
			hw := sz.h * sz.w
			x := randSlice(rng, sz.inC*hw)
			weights := randSlice(rng, sz.outC*sz.inC*sz.k*sz.k)
			grad := randSlice(rng, sz.outC*hw)
			dw0 := randSlice(rng, len(weights)) // pre-fill: dW accumulates
			for _, r := range runConvFusedAndLowered(sz.inC, sz.outC, sz.h, sz.w, sz.k, x, weights, grad, dw0) {
				for i := range r.want {
					if r.got[i] != r.want[i] {
						t.Fatalf("%s elem %d: got %v want %v", r.name, i, r.got[i], r.want[i])
					}
				}
			}
		})
	}
}

// FuzzConvFusedMatchesLowered is the fuzzed form of the invariant every
// convolution in internal/nn rests on: for any geometry (1-6 channels each
// way, 1-12 rows and columns, odd and even kernels 1-9) and any finite
// operands — signed zeros, subnormals, underflowing tinies and magnitudes
// large enough that products overflow — each fused kernel's output has the
// same bit pattern as its lowered oracle's. Inputs are finite because the
// fused kernels' equivalence argument needs them to be (see conv_fused.go).
// h·w == 1 is outside the kernels' contract (they panic), so it is skipped.
func FuzzConvFusedMatchesLowered(f *testing.F) {
	f.Add(uint8(0), uint8(3), uint8(15), uint8(15), uint8(7), int64(1)) // stem-shaped, even k
	f.Add(uint8(3), uint8(5), uint8(4), uint8(6), uint8(2), int64(2))
	f.Fuzz(func(t *testing.T, inC8, outC8, h8, w8, k8 uint8, seed int64) {
		inC, outC := 1+int(inC8%6), 1+int(outC8%6)
		h, w, k := 1+int(h8%12), 1+int(w8%12), 1+int(k8%9)
		if h*w == 1 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		vals := func(n int) []float64 {
			s := make([]float64, n)
			for i := range s {
				s[i] = edgeFloat(rng, false)
			}
			return s
		}
		hw := h * w
		x, weights := vals(inC*hw), vals(outC*inC*k*k)
		grad, dw0 := vals(outC*hw), vals(outC*inC*k*k)
		for _, r := range runConvFusedAndLowered(inC, outC, h, w, k, x, weights, grad, dw0) {
			for i := range r.want {
				if math.Float64bits(r.got[i]) != math.Float64bits(r.want[i]) {
					t.Fatalf("%dc%d %dx%d k%d %s elem %d: fused %v (%#x), lowered %v (%#x)",
						inC, outC, h, w, k, r.name, i, r.got[i], math.Float64bits(r.got[i]),
						r.want[i], math.Float64bits(r.want[i]))
				}
			}
		}
	})
}
