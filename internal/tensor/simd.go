package tensor

// Vector primitives behind the fused-conv and Dense inner loops. On amd64
// hosts with AVX2 the dispatchers in simd_amd64.go run the assembly twins in
// simd_amd64.s; everywhere else they run the Go loops below, which are also
// the oracle the assembly is tested against (TestSIMDMatchesGeneric).
//
// The assembly is bit-identical to these loops, not merely close: it
// vectorizes only across independent output elements, never along a
// reduction chain, keeps every per-element expression in Go's left-to-right
// order, and multiplies and adds separately (VMULPD+VADDPD, never FMA) —
// exactly the MULSD/ADDSD sequence the compiler emits for these loops at the
// default GOAMD64=v1. A GOAMD64=v3 build lets the compiler fuse the Go loops
// into FMAs, which breaks the equality and the checked-in reference outputs.

// axpy4Go computes c[j] += a0·b0[j] + a1·b1[j] + a2·b2[j] + a3·b3[j] for
// every j in c; the b slices must be at least len(c) long.
func axpy4Go(c, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64) {
	b0, b1, b2, b3 = b0[:len(c)], b1[:len(c)], b2[:len(c)], b3[:len(c)]
	for j := range c {
		c[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
	}
}

// axpy1Go computes c[j] += a·b[j] for every j in c; b must be at least
// len(c) long.
func axpy1Go(c, b []float64, a float64) {
	b = b[:len(c)]
	for j := range c {
		c[j] += a * b[j]
	}
}

// dot4x4Go computes s[4c+q] = Σ_t g[c][t]·p[q][t] for every row c of g
// (at most four) and every column q, each sum one accumulator from +0 in
// ascending t over len(g[0]); every row must be at least that long. Four
// chains per row stay in flight, the pattern GemmNT's four-wide column
// panels are defined by. Entries of s past 4·len(g) are left untouched.
func dot4x4Go(g [][]float64, p *[4][]float64, s *[16]float64) {
	n := len(g[0])
	p0, p1, p2, p3 := p[0][:n], p[1][:n], p[2][:n], p[3][:n]
	for c, row := range g {
		var s0, s1, s2, s3 float64
		for t, av := range row[:n] {
			s0 += av * p0[t]
			s1 += av * p1[t]
			s2 += av * p2[t]
			s3 += av * p3[t]
		}
		s[4*c], s[4*c+1], s[4*c+2], s[4*c+3] = s0, s1, s2, s3
	}
}

// dotLanes is the four-lane interleaved dot product: aligned four-element
// groups feed four accumulators that are summed once, then the leftover
// elements are added one at a time. b must be at least len(a) long.
func dotLanes(a, b []float64) float64 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	k := 0
	for ; k+3 < len(a); k += 4 {
		s0 += a[k] * b[k]
		s1 += a[k+1] * b[k+1]
		s2 += a[k+2] * b[k+2]
		s3 += a[k+3] * b[k+3]
	}
	s := s0 + s1 + s2 + s3
	for ; k < len(a); k++ {
		s += a[k] * b[k]
	}
	return s
}
