package tensor

// useAVX2 selects the assembly primitives; CPUID decides it once at start-up.
var useAVX2 = detectAVX2()

// detectAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// state across context switches (CPUID.1:ECX.OSXSAVE/AVX, XCR0 bits 1-2,
// CPUID.7:EBX.AVX2).
func detectAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

//go:noescape
func axpy4AVX2(c, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64)

//go:noescape
func axpy1AVX2(c, b []float64, a float64)

//go:noescape
func dot4x4AVX2(g0, g1, g2, g3, p0, p1, p2, p3 []float64, s *[16]float64)

func axpy4(c, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64) {
	if useAVX2 {
		n := len(c)
		axpy4AVX2(c, b0[:n], b1[:n], b2[:n], b3[:n], a0, a1, a2, a3)
		return
	}
	axpy4Go(c, b0, b1, b2, b3, a0, a1, a2, a3)
}

func axpy1(c, b []float64, a float64) {
	if useAVX2 {
		axpy1AVX2(c, b[:len(c)], a)
		return
	}
	axpy1Go(c, b, a)
}

func dot4x4(g [][]float64, p *[4][]float64, s *[16]float64) {
	if useAVX2 {
		// Missing rows repeat the last one; the kernel always runs four,
		// and callers read only the first 4·len(g) sums.
		n := len(g[0])
		var r [4][]float64
		for c := range r {
			r[c] = g[min(c, len(g)-1)][:n]
		}
		dot4x4AVX2(r[0], r[1], r[2], r[3], p[0][:n], p[1][:n], p[2][:n], p[3][:n], s)
		return
	}
	dot4x4Go(g, p, s)
}
