package tensor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

const noAVX2 = "CPU lacks AVX2 or the OS does not save YMM state: the kernels run the Go twins only"

// sameFloat is the parity predicate: bit-for-bit equality, except that a
// NaN result only has to be matched by some NaN (payloads may differ).
func sameFloat(got, want float64) bool {
	if math.IsNaN(want) {
		return math.IsNaN(got)
	}
	return math.Float64bits(got) == math.Float64bits(want)
}

func assertSameFloats(t *testing.T, tag string, got, want []float64) {
	t.Helper()
	for i := range want {
		if !sameFloat(got[i], want[i]) {
			t.Fatalf("%s: element %d = %v (%#x), Go twin %v (%#x)", tag, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// operand returns an n-element view at offset off into a fresh buffer, so
// the kernels see every alignment of the 32-byte vector loads.
func operand(rng *rand.Rand, n, off int, withNaN bool) []float64 {
	buf := make([]float64, off+n+3)
	for i := range buf {
		buf[i] = edgeFloat(rng, withNaN)
	}
	return buf[off : off+n]
}

// checkPrimitives runs every AVX2 primitive and its Go twin on the same
// operands (drawn by next) and asserts parity.
func checkPrimitives(t *testing.T, tag string, n int, next func(n, k int) []float64) {
	t.Helper()
	var b [4][]float64
	for q := range b {
		b[q] = next(n, q)
	}
	a := next(4, 0)

	c := next(n, 1)
	want := append([]float64(nil), c...)
	axpy4AVX2(c, b[0], b[1], b[2], b[3], a[0], a[1], a[2], a[3])
	axpy4Go(want, b[0], b[1], b[2], b[3], a[0], a[1], a[2], a[3])
	assertSameFloats(t, tag+" axpy4", c, want)

	c = next(n, 2)
	want = append(want[:0], c...)
	axpy1AVX2(c, b[2], a[1])
	axpy1Go(want, b[2], a[1])
	assertSameFloats(t, tag+" axpy1", c, want)

	var g [4][]float64
	for r := range g {
		g[r] = next(n, r+3)
	}
	var got, ref [16]float64
	dot4x4AVX2(g[0], g[1], g[2], g[3], b[0], b[1], b[2], b[3], &got)
	dot4x4Go(g[:], &b, &ref)
	assertSameFloats(t, tag+" dot4x4", got[:], ref[:])
	for nr := 1; nr < 4; nr++ {
		dot4x4(g[:nr], &b, &got)
		dot4x4Go(g[:nr], &b, &ref)
		assertSameFloats(t, tag+" dot4x4 rows="+strconv.Itoa(nr), got[:4*nr], ref[:4*nr])
	}
}

// TestSIMDMatchesGeneric pins each AVX2 primitive to its Go twin bit for
// bit across the tail lengths 0-9, the fused-conv span lengths of the 8×8
// net (78, 286, 4600), every slice alignment, and IEEE edge values.
func TestSIMDMatchesGeneric(t *testing.T) {
	if !useAVX2 {
		t.Skip(noAVX2)
	}
	rng := rand.New(rand.NewSource(29))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 78, 286, 4600} {
		for off := 0; off < 4; off++ {
			for _, withNaN := range []bool{false, true} {
				tag := "n=" + strconv.Itoa(n) + " off=" + strconv.Itoa(off)
				if withNaN {
					tag += " nan"
				}
				checkPrimitives(t, tag, n, func(n, k int) []float64 {
					return operand(rng, n, (off+k)%4, withNaN)
				})
			}
		}
	}
}

// FuzzSIMDMatchesGeneric feeds the primitives raw float64 bit patterns:
// data is read as little-endian float64s (zero-padded to a whole value),
// cycled to fill every operand, each at its own offset into the pattern.
func FuzzSIMDMatchesGeneric(f *testing.F) {
	f.Add(uint16(78), uint8(1), []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x3f})
	f.Fuzz(func(t *testing.T, n uint16, off uint8, data []byte) {
		if !useAVX2 {
			t.Skip(noAVX2)
		}
		data = append(data, make([]byte, (8-len(data)%8)%8)...)
		if len(data) == 0 {
			data = make([]byte, 8)
		}
		vals := make([]float64, len(data)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		cursor := 0
		checkPrimitives(t, "fuzz", int(n%1200), func(n, k int) []float64 {
			o := (int(off) + k) % 4
			buf := make([]float64, o+n)
			for i := range buf {
				buf[i] = vals[(cursor+i)%len(vals)]
			}
			cursor += 3
			return buf[o:]
		})
	})
}

// BenchmarkConvFused times the fused conv kernels at the default 8×8
// search net's layer shapes (BaseChannels 4, 64×64 input, three pools),
// once on the AVX2 primitives (simd) and once with the dispatch forced to
// the Go twins (generic).
func BenchmarkConvFused(b *testing.B) {
	for _, sz := range []struct {
		name               string
		inC, outC, side, k int
	}{
		{"stem_1x4_64k9", 1, 4, 64, 9},
		{"res1_4x4_64k3", 4, 4, 64, 3},
		{"conv2_4x8_32k3", 4, 8, 32, 3},
		{"res2_8x8_16k3", 8, 8, 16, 3},
		{"res4_32x32_8k3", 32, 32, 8, 3},
		{"head_32x2_8k3", 32, 2, 8, 3},
	} {
		rng := rand.New(rand.NewSource(3))
		h, w, k := sz.side, sz.side, sz.k
		hw, hp, wp := h*w, h+k-1, w+k-1
		plane := hp * wp
		ickk := sz.inC * k * k
		lead := k - 1 - (k-1)/2
		x, grad := randSlice(rng, sz.inC*hw), randSlice(rng, sz.outC*hw)
		weights := randSlice(rng, sz.outC*ickk)
		xp := make([]float64, sz.inC*plane)
		for ic := 0; ic < sz.inC; ic++ {
			PadPlane(x[ic*hw:], h, w, k, xp[ic*plane:])
		}
		gp := make([]float64, sz.outC*plane)
		for oc := 0; oc < sz.outC; oc++ {
			PadPlaneLead(grad[oc*hw:], h, w, k, lead, gp[oc*plane:])
		}
		out := make([]float64, sz.outC*hw)
		pout := make([]float64, (h-1)*wp+w)
		wGrad := make([]float64, sz.outC*ickk)
		dx := make([]float64, sz.inC*hw)
		rowBuf := make([]float64, hw)
		dxScratch := make([]float64, 2*len(pout))
		kernels := []struct {
			name string
			run  func()
		}{
			{"fwd", func() { ConvFwdPad(weights, sz.outC, sz.inC, xp, plane, h, w, k, out, hw, pout) }},
			{"dw", func() {
				ConvDWPad(grad, hw, gp[lead*wp+lead:], plane, xp, plane, sz.outC, sz.inC, h, w, k, wGrad, rowBuf)
			}},
			{"dx", func() { ConvDXPad(weights, sz.outC, sz.inC, gp, plane, h, w, k, dx, hw, dxScratch) }},
		}
		for _, kern := range kernels {
			for _, simd := range []bool{true, false} {
				impl := "generic"
				if simd {
					impl = "simd"
				}
				b.Run(sz.name+"/"+kern.name+"/"+impl, func(b *testing.B) {
					if simd && !useAVX2 {
						b.Skip(noAVX2)
					}
					defer func(saved bool) { useAVX2 = saved }(useAVX2)
					useAVX2 = simd
					for i := 0; i < b.N; i++ {
						kern.run()
					}
				})
			}
		}
	}
}
