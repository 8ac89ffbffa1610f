package nn

// Tests pinning the Conv2D layer to the per-sample reference convolutions
// in naive_test.go, checking gradients by central differences, and
// guarding the zero-allocation steady state of the whole network.

import (
	"math"
	"math/rand"
	"testing"

	"routerless/internal/tensor"
)

// convParityShapes covers odd/even spatial extents, K ∈ {1,3,5}, InC≠OutC,
// and non-square maps.
var convParityShapes = []struct{ inC, outC, k, h, w int }{
	{1, 1, 1, 2, 3},
	{1, 3, 1, 4, 5},
	{2, 5, 3, 6, 6},
	{3, 2, 3, 5, 8},
	{4, 4, 3, 7, 7},
	{2, 3, 5, 9, 6},
	{1, 2, 5, 4, 4}, // kernel wider than half the map
}

// convInput draws a batched (inC, nb, h, w) input and returns it with its
// per-sample (inC, h, w) views.
func convInput(rng *rand.Rand, inC, nb, h, w int) (*tensor.Tensor, [][]float64) {
	x := tensor.Randn(rng, 1, inC, nb, h, w)
	return x, samplesOf(x)
}

// samplesOf copies each sample of a channel-major (C, B, H, W) tensor out
// as a contiguous (C, H, W) slice.
func samplesOf(x *tensor.Tensor) [][]float64 {
	c, nb, hw := x.Shape[0], x.Shape[1], x.Shape[2]*x.Shape[3]
	out := make([][]float64, nb)
	for bi := range out {
		out[bi] = make([]float64, c*hw)
		for ci := 0; ci < c; ci++ {
			copy(out[bi][ci*hw:(ci+1)*hw], x.Data[(ci*nb+bi)*hw:(ci*nb+bi+1)*hw])
		}
	}
	return out
}

func maxAbsDiffS(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		if v := math.Abs(a[i] - b[i]); v > d {
			d = v
		}
	}
	return d
}

func TestConvForwardParityWithNaive(t *testing.T) {
	for _, sh := range convParityShapes {
		rng := rand.New(rand.NewSource(int64(sh.inC*100 + sh.k)))
		l := NewConv2D(rng, "c", sh.inC, sh.outC, sh.k)
		// Non-zero bias so the bias path is covered too.
		for i := range l.Bias.W.Data {
			l.Bias.W.Data[i] = rng.NormFloat64()
		}
		x, samples := convInput(rng, sh.inC, 2, sh.h, sh.w)
		fast := samplesOf(l.Forward(x, true))
		for bi, s := range samples {
			if d := maxAbsDiffS(fast[bi], naiveConvForward(l, s, sh.h, sh.w)); d > 1e-9 {
				t.Fatalf("%+v sample %d: forward diff %g > 1e-9", sh, bi, d)
			}
		}
	}
}

func TestConvBackwardParityWithNaive(t *testing.T) {
	for _, sh := range convParityShapes {
		rng := rand.New(rand.NewSource(int64(sh.outC*100 + sh.h)))
		l := NewConv2D(rng, "c", sh.inC, sh.outC, sh.k)
		x, samples := convInput(rng, sh.inC, 2, sh.h, sh.w)
		grad := tensor.Randn(rng, 1, sh.outC, 2, sh.h, sh.w)

		l.Forward(x, true)
		dxFast := samplesOf(l.Backward(grad, true))
		dwFast := l.Weight.G.Clone()
		dbFast := l.Bias.G.Clone()

		for _, p := range l.Params() {
			p.G.Fill(0)
		}
		for bi, g := range samplesOf(grad) {
			dxNaive := naiveConvBackward(l, samples[bi], g, sh.h, sh.w)
			if d := maxAbsDiffS(dxFast[bi], dxNaive); d > 1e-9 {
				t.Fatalf("%+v sample %d: dX diff %g > 1e-9", sh, bi, d)
			}
		}
		if d := maxAbsDiffS(dwFast.Data, l.Weight.G.Data); d > 1e-9 {
			t.Fatalf("%+v: dW diff %g > 1e-9", sh, d)
		}
		if d := maxAbsDiffS(dbFast.Data, l.Bias.G.Data); d > 1e-9 {
			t.Fatalf("%+v: dB diff %g > 1e-9", sh, d)
		}
	}
}

// TestConvMatchesLoweredOracle pins the Conv2D layer to the lowered
// per-sample oracle bit for bit, at B=1 and B>1: forward outputs, and dW,
// dB and dX accumulated into live (non-zero) gradient buffers, sample by
// sample in ascending order. Shapes add an even kernel (the stem's
// geometry when N is even) to the parity set.
func TestConvMatchesLoweredOracle(t *testing.T) {
	shapes := append([]struct{ inC, outC, k, h, w int }{
		{1, 3, 4, 6, 6},  // even kernel
		{5, 6, 3, 4, 4},  // outC past the four-lane group
		{16, 4, 3, 5, 4}, // inC·k·k = 144 crosses a reduction panel
	}, convParityShapes...)
	for _, sh := range shapes {
		for _, nb := range []int{1, 3} {
			rng := rand.New(rand.NewSource(int64(sh.inC*1000 + sh.k*10 + nb)))
			l := NewConv2D(rng, "c", sh.inC, sh.outC, sh.k)
			for _, p := range l.Params() {
				for i := range p.W.Data {
					p.W.Data[i] = rng.NormFloat64()
				}
				for i := range p.G.Data {
					p.G.Data[i] = rng.NormFloat64()
				}
			}
			ref := &Conv2D{InC: l.InC, OutC: l.OutC, K: l.K,
				Weight: &Param{W: l.Weight.W, G: l.Weight.G.Clone()},
				Bias:   &Param{W: l.Bias.W, G: l.Bias.G.Clone()}}
			x, samples := convInput(rng, sh.inC, nb, sh.h, sh.w)
			grad := tensor.Randn(rng, 1, sh.outC, nb, sh.h, sh.w)
			out := samplesOf(l.Forward(x, true))
			dx := samplesOf(l.Backward(grad, true))
			for bi, g := range samplesOf(grad) {
				assertBitsEqual(t, sh, nb, "forward", out[bi], loweredConvForward(ref, samples[bi], sh.h, sh.w))
				assertBitsEqual(t, sh, nb, "dX", dx[bi], loweredConvBackward(ref, samples[bi], g, sh.h, sh.w))
			}
			assertBitsEqual(t, sh, nb, "dW", l.Weight.G.Data, ref.Weight.G.Data)
			assertBitsEqual(t, sh, nb, "dB", l.Bias.G.Data, ref.Bias.G.Data)
		}
	}
}

func assertBitsEqual(t *testing.T, sh any, nb int, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%+v B=%d %s elem %d: layer %v, lowered oracle %v", sh, nb, what, i, got[i], want[i])
		}
	}
}

// TestConvGradientCheckSmall runs the central-difference check on small
// conv layers, including K=1 and a non-square map (TestConv2DGradients in
// layer_test.go covers the 3×3 case).
func TestConvGradientCheckSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, sh := range []struct{ inC, outC, k, h, w int }{
		{1, 2, 1, 3, 4},
		{2, 3, 3, 4, 5},
	} {
		l := NewConv2D(rng, "c", sh.inC, sh.outC, sh.k)
		x := tensor.Randn(rng, 1, sh.inC, 2, sh.h, sh.w)
		checkLayerGradients(t, l, x, 1e-4)
	}
}

// TestTrainBatchGradientCheck validates the batched training path against
// ground truth rather than against the sequential oracle: parameter
// gradients accumulated by one training ForwardBatch + BackwardBatch must match
// central differences of a scalar loss over the batch. The loss reads each
// head through an invertible link — Σ c·log p for the softmax groups (so
// dL/dlogit_j = c_j − p_j·Σc), c·atanh(Dir) for the tanh direction head (so
// dL/dz = c at the pre-activation BackwardBatch expects), and c·V for the
// linear value head — making the exact head gradients computable from the
// forward outputs alone. Train-mode BatchNorm only advances its running EMA
// (per-sample batch statistics feed the normalization), so the repeated
// numeric evaluations do not perturb what is being differentiated.
func TestTrainBatchGradientCheck(t *testing.T) {
	net := NewPolicyValueNet(TestConfig(4), 11)
	perturbNet(net, 13)
	rng := rand.New(rand.NewSource(17))
	const nb = 3
	nc := net.Cfg.N
	states := randStates(rng, 4, nb)
	cw := make([]float64, nb*4*nc)
	cd := make([]float64, nb)
	cv := make([]float64, nb)
	for i := range cw {
		cw[i] = rng.NormFloat64()
	}
	for b := 0; b < nb; b++ {
		cd[b], cv[b] = rng.NormFloat64(), rng.NormFloat64()
	}

	outs := make([]Output, nb)
	loss := func() float64 {
		net.ForwardBatch(states, outs, true)
		s := 0.0
		for b := range outs {
			o := &outs[b]
			for g := 0; g < 4; g++ {
				for i, p := range o.CoordProbs[g] {
					s += cw[b*4*nc+g*nc+i] * math.Log(p)
				}
			}
			s += cd[b]*math.Atanh(o.Dir) + cv[b]*o.Value
		}
		return s
	}

	net.ZeroGrads()
	net.ForwardBatch(states, outs, true)
	flat := make([]float64, nb*4*nc)
	for b := range outs {
		for g := 0; g < 4; g++ {
			row := cw[b*4*nc+g*nc : b*4*nc+(g+1)*nc]
			tot := 0.0
			for _, c := range row {
				tot += c
			}
			for j, p := range outs[b].CoordProbs[g] {
				flat[b*4*nc+g*nc+j] = row[j] - p*tot
			}
		}
	}
	net.BackwardBatch(flat, cd, cv)
	grads := net.GetGrads()

	weights := net.GetWeights()
	const eps = 1e-5
	for k := 0; k < 60; k++ {
		i := rng.Intn(len(weights))
		orig := weights[i]
		weights[i] = orig + eps
		net.SetWeights(weights)
		lp := loss()
		weights[i] = orig - eps
		net.SetWeights(weights)
		lm := loss()
		weights[i] = orig
		net.SetWeights(weights)
		want := (lp - lm) / (2 * eps)
		if math.Abs(grads[i]-want) > 1e-4*(1+math.Abs(want)) {
			t.Fatalf("weight %d: analytic grad %v, central difference %v", i, grads[i], want)
		}
	}
}

// TestNetworkSteadyStateAllocs asserts the warmed-up hot path allocates
// nothing: every tensor, padded plane, and output slice is arena-owned
// and reused. The bound is exactly 0 allocations per Forward+Backward
// cycle; raise it only with a comment justifying each new allocation.
func TestNetworkSteadyStateAllocs(t *testing.T) {
	net := NewPolicyValueNet(TestConfig(4), 1)
	in := randomHopMatrix(rand.New(rand.NewSource(5)), 4)
	var dl [4][]float64
	for g := range dl {
		dl[g] = make([]float64, 4)
		dl[g][g] = 0.3
	}
	// Warm up: size every scratch buffer in the arena.
	for i := 0; i < 3; i++ {
		net.Forward(in, true)
		net.Backward(dl, 0.2, -0.4)
	}
	const maxAllocs = 0.0
	avg := testing.AllocsPerRun(20, func() {
		net.Forward(in, true)
		net.Backward(dl, 0.2, -0.4)
	})
	if avg > maxAllocs {
		t.Fatalf("steady-state forward+backward allocates %.1f times per run, want <= %v",
			avg, maxAllocs)
	}
}

// TestWorkerLoopSteadyStateAllocs covers the surrounding training-step
// machinery the drl workers run per episode: gradient extraction and
// weight loading must also be allocation-free.
func TestWorkerLoopSteadyStateAllocs(t *testing.T) {
	net := NewPolicyValueNet(TestConfig(4), 1)
	grads := make([]float64, net.NumParams())
	weights := net.GetWeights()
	avg := testing.AllocsPerRun(20, func() {
		net.CopyGradsInto(grads)
		net.SetWeights(weights)
		net.ZeroGrads()
	})
	if avg > 0 {
		t.Fatalf("grad/weight sync allocates %.1f times per run, want 0", avg)
	}
}

func TestScratchFootprintReported(t *testing.T) {
	net := NewPolicyValueNet(TestConfig(4), 1)
	in := randomHopMatrix(rand.New(rand.NewSource(6)), 4)
	net.Forward(in, true)
	if net.Scratch().ScratchFloats() == 0 {
		t.Fatal("arena reports no scratch after a forward pass")
	}
	before := net.Scratch().ScratchFloats()
	net.Forward(in, true)
	if got := net.Scratch().ScratchFloats(); got != before {
		t.Fatalf("scratch grew across identical forwards: %d -> %d", before, got)
	}
}
