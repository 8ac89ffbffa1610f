// Package nn is a from-scratch neural-network library implementing exactly
// the components the paper's DNN needs (Fig. 6): 2-D convolutions, batch
// normalization, max pooling, ReLU, fully connected layers, residual
// blocks, softmax/tanh heads, and plain SGD.
//
// There is one layer stack. Spatial activations use a channel-major batched
// layout (C, B, H, W): all B samples of a channel are contiguous, so
// per-channel work (BatchNorm, bias add) sweeps one row per channel. Fully
// connected layers run on sample-major (B, features) rows. A single sample
// is simply B = 1, so per-step training, per-worker inference, brokered
// batch inference and tiled trajectory training all run the same code.
//
// Convolutions run the fused padded-plane kernels (tensor.ConvFwdPad,
// ConvDWPad, ConvDXPad): the input is copied once into zero-padded planes
// and no im2col column matrix is ever built. The kernels are bit-identical
// to the lowered im2col + GEMM formulation (tensor's lowered oracle tests
// pin that), and per-sample results never depend on B: BatchNorm in
// training mode keeps per-sample statistics and every gradient accumulates
// one sample at a time in ascending sample order, so one batched
// forward/backward equals B single-sample steps bit for bit.
//
// Every layer draws its outputs, gradients, and scratch from an Arena, so
// steady-state forward/backward cycles allocate nothing; the tensors a
// layer returns are owned by the layer and valid until its next call.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"routerless/internal/tensor"
)

// Param couples a learnable weight tensor with its gradient accumulator.
type Param struct {
	Name string
	W    *tensor.Tensor
	G    *tensor.Tensor
}

func newParam(name string, w *tensor.Tensor) *Param {
	return &Param{Name: name, W: w, G: w.ZerosLike()}
}

// Layer is a differentiable module over the (C, B, H, W) layout. Forward
// caches what Backward needs when train is true; Backward consumes
// dL/d(output) of the most recent training Forward, accumulates parameter
// gradients, and returns dL/d(input) — or nil when needDX is false and the
// layer can skip that work (the stem conv, whose input gradient nobody
// consumes). Layers keep one set of scratch: an evaluation Forward between
// a training Forward and its Backward clobbers the caches. Layers are not
// reentrant and not goroutine-safe.
type Layer interface {
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	Backward(grad *tensor.Tensor, needDX bool) *tensor.Tensor
	Params() []*Param
}

// ---------------------------------------------------------------------------
// Conv2D

// Conv2D is a 2-D convolution with stride 1 and zero "same" padding.
type Conv2D struct {
	InC, OutC, K int
	Weight       *Param // shape (OutC, InC, K, K)
	Bias         *Param // shape (OutC)

	arena *Arena
	x     *tensor.Tensor // cached input
	xpad  []float64      // zero-padded input planes, kept for Backward
	pout  []float64      // gapped output accumulation row (ConvFwdPad)
	gpad  []float64      // zero-padded gradient planes, rebuilt per sample
	row   []float64      // gathered cols row (ConvDWPad leftover columns)
	dxRow []float64      // two gapped accumulation rows (ConvDXPad)
	out   *tensor.Tensor
	dx    *tensor.Tensor
}

// NewConv2D builds a conv layer with He-initialized weights.
func NewConv2D(rng *rand.Rand, name string, inC, outC, k int) *Conv2D {
	std := math.Sqrt(2.0 / float64(inC*k*k))
	return &Conv2D{
		InC: inC, OutC: outC, K: k,
		Weight: newParam(name+".w", tensor.Randn(rng, std, outC, inC, k, k)),
		Bias:   newParam(name+".b", tensor.New(outC)),
	}
}

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.Weight, c.Bias} }

// Forward implements Layer: x is (InC, B, H, W), the result (OutC, B, H, W).
// Every input plane is copied once into zero-padded planes (kept for
// Backward) and each sample runs tensor.ConvFwdPad; the bias is added per
// channel row. Both modes compute the same thing.
func (c *Conv2D) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	if len(x.Shape) != 4 || x.Shape[0] != c.InC {
		panic(fmt.Sprintf("nn: Conv2D input shape %v, want (%d,B,H,W)", x.Shape, c.InC))
	}
	nb, h, w := x.Shape[1], x.Shape[2], x.Shape[3]
	hw := h * w
	hpwp := (h + c.K - 1) * (w + c.K - 1)
	a := ensureArena(&c.arena)
	c.x = x
	out := a.tensorFor(&c.out, c.OutC, nb, h, w)
	xp := a.slice(&c.xpad, c.InC*nb*hpwp)
	for plane := 0; plane < c.InC*nb; plane++ {
		tensor.PadPlane(x.Data[plane*hw:(plane+1)*hw], h, w, c.K, xp[plane*hpwp:(plane+1)*hpwp])
	}
	pout := a.slice(&c.pout, (h-1)*(w+c.K-1)+w)
	for bi := 0; bi < nb; bi++ {
		tensor.ConvFwdPad(c.Weight.W.Data, c.OutC, c.InC,
			xp[bi*hpwp:], nb*hpwp, h, w, c.K,
			out.Data[bi*hw:], nb*hw, pout)
	}
	for oc := 0; oc < c.OutC; oc++ {
		b := c.Bias.W.Data[oc]
		if b == 0 {
			continue
		}
		row := out.Data[oc*nb*hw : (oc+1)*nb*hw]
		for i := range row {
			row[i] += b
		}
	}
	return out
}

// Backward implements Layer: one sample at a time, in ascending sample
// order, tensor.ConvDWPad accumulates dW and tensor.ConvDXPad produces dX
// from the zero-padded gradient planes; bias gradients accumulate per
// (channel, sample) plane in sample order.
func (c *Conv2D) Backward(grad *tensor.Tensor, needDX bool) *tensor.Tensor {
	x := c.x
	nb, h, w := x.Shape[1], x.Shape[2], x.Shape[3]
	hw := h * w
	hpwp := (h + c.K - 1) * (w + c.K - 1)
	a := ensureArena(&c.arena)
	for oc := 0; oc < c.OutC; oc++ {
		for bi := 0; bi < nb; bi++ {
			s := 0.0
			for _, g := range grad.Data[(oc*nb+bi)*hw : (oc*nb+bi+1)*hw] {
				s += g
			}
			c.Bias.G.Data[oc] += s
		}
	}
	wpad := w + c.K - 1
	lead := c.K - 1 - (c.K-1)/2 // gradient planes lead with the larger border
	row := a.slice(&c.row, hw)
	gpad := a.slice(&c.gpad, c.OutC*hpwp)
	var dx *tensor.Tensor
	var dxRow []float64
	if needDX {
		dx = a.tensorFor(&c.dx, x.Shape...)
		dxRow = a.slice(&c.dxRow, 2*((h-1)*wpad+w))
	}
	// The interior rows of the padded gradient planes, viewed from the first
	// pixel at stride wpad, are exactly the zero-gapped span ConvDWPad walks.
	gp := gpad[lead*wpad+lead:]
	for bi := 0; bi < nb; bi++ {
		for oc := 0; oc < c.OutC; oc++ {
			tensor.PadPlaneLead(grad.Data[(oc*nb+bi)*hw:], h, w, c.K, lead, gpad[oc*hpwp:])
		}
		tensor.ConvDWPad(grad.Data[bi*hw:], nb*hw, gp, hpwp,
			c.xpad[bi*hpwp:], nb*hpwp,
			c.OutC, c.InC, h, w, c.K, c.Weight.G.Data, row)
		if needDX {
			tensor.ConvDXPad(c.Weight.W.Data, c.OutC, c.InC,
				gpad, hpwp, h, w, c.K,
				dx.Data[bi*hw:], nb*hw, dxRow)
		}
	}
	return dx
}

// ---------------------------------------------------------------------------
// BatchNorm

// BatchNorm normalizes each channel with learnable scale/shift. Training
// normalizes every (channel, sample) plane over its own spatial extent —
// per-sample statistics, never batch statistics, so a batch trains exactly
// like B single samples — and advances the running-statistics EMA once per
// sample in ascending sample order. Evaluation applies the running
// statistics.
type BatchNorm struct {
	C     int
	Gamma *Param
	Beta  *Param

	Momentum float64
	RunMean  []float64
	RunVar   []float64
	Eps      float64

	arena *Arena
	xhat  []float64 // normalized activations (training)
	invSD []float64 // per-(channel, sample) 1/σ (training)
	out   *tensor.Tensor
	dx    *tensor.Tensor
}

// NewBatchNorm builds a batch-norm layer for c channels.
func NewBatchNorm(name string, c int) *BatchNorm {
	g := tensor.New(c)
	g.Fill(1)
	bn := &BatchNorm{
		C:        c,
		Gamma:    newParam(name+".gamma", g),
		Beta:     newParam(name+".beta", tensor.New(c)),
		Momentum: 0.9,
		RunMean:  make([]float64, c),
		RunVar:   make([]float64, c),
		Eps:      1e-5,
	}
	for i := range bn.RunVar {
		bn.RunVar[i] = 1
	}
	return bn
}

// Params implements Layer.
func (b *BatchNorm) Params() []*Param { return []*Param{b.Gamma, b.Beta} }

// Forward implements Layer.
func (b *BatchNorm) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if len(x.Shape) != 4 || x.Shape[0] != b.C {
		panic(fmt.Sprintf("nn: BatchNorm input %v, want (%d,B,H,W)", x.Shape, b.C))
	}
	nb := x.Shape[1]
	n := x.Shape[2] * x.Shape[3]
	a := ensureArena(&b.arena)
	out := a.tensorFor(&b.out, x.Shape...)
	if !train {
		for c := 0; c < b.C; c++ {
			mean := b.RunMean[c]
			inv := 1 / math.Sqrt(b.RunVar[c]+b.Eps)
			g, beta := b.Gamma.W.Data[c], b.Beta.W.Data[c]
			dst := out.Data[c*nb*n : (c+1)*nb*n]
			for i, v := range x.Data[c*nb*n : (c+1)*nb*n] {
				dst[i] = g*((v-mean)*inv) + beta
			}
		}
		return out
	}
	xhat := a.slice(&b.xhat, x.Size())
	invSD := a.slice(&b.invSD, b.C*nb)
	for c := 0; c < b.C; c++ {
		g, beta := b.Gamma.W.Data[c], b.Beta.W.Data[c]
		for bi := 0; bi < nb; bi++ {
			p := (c*nb + bi) * n
			ch := x.Data[p : p+n]
			var mean, varc float64
			for _, v := range ch {
				mean += v
			}
			mean /= float64(n)
			for _, v := range ch {
				d := v - mean
				varc += d * d
			}
			varc /= float64(n)
			b.RunMean[c] = b.Momentum*b.RunMean[c] + (1-b.Momentum)*mean
			b.RunVar[c] = b.Momentum*b.RunVar[c] + (1-b.Momentum)*varc
			inv := 1 / math.Sqrt(varc+b.Eps)
			invSD[c*nb+bi] = inv
			for i, v := range ch {
				xh := (v - mean) * inv
				xhat[p+i] = xh
				out.Data[p+i] = g*xh + beta
			}
		}
	}
	return out
}

// Backward implements Layer: the per-sample training-mode gradient applied
// plane by plane, with Gamma/Beta accumulating in ascending sample order
// per channel.
func (b *BatchNorm) Backward(grad *tensor.Tensor, _ bool) *tensor.Tensor {
	nb := grad.Shape[1]
	n := grad.Shape[2] * grad.Shape[3]
	dx := ensureArena(&b.arena).tensorFor(&b.dx, grad.Shape...)
	for c := 0; c < b.C; c++ {
		g := b.Gamma.W.Data[c]
		for bi := 0; bi < nb; bi++ {
			p := (c*nb + bi) * n
			var sumDy, sumDyXhat float64
			for i := 0; i < n; i++ {
				dy := grad.Data[p+i]
				sumDy += dy
				sumDyXhat += dy * b.xhat[p+i]
			}
			b.Gamma.G.Data[c] += sumDyXhat
			b.Beta.G.Data[c] += sumDy
			inv := b.invSD[c*nb+bi]
			for i := 0; i < n; i++ {
				dy := grad.Data[p+i]
				xh := b.xhat[p+i]
				dx.Data[p+i] = g * inv / float64(n) *
					(float64(n)*dy - sumDy - xh*sumDyXhat)
			}
		}
	}
	return dx
}

// ---------------------------------------------------------------------------
// ReLU

// ReLU is the rectified linear activation. It is shape-generic, so it also
// serves the sample-major head rows.
type ReLU struct {
	arena *Arena
	out   *tensor.Tensor
	dx    *tensor.Tensor
}

// NewReLU builds a ReLU layer.
func NewReLU() *ReLU { return &ReLU{} }

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	out := ensureArena(&r.arena).tensorFor(&r.out, x.Shape...)
	for i, v := range x.Data {
		if v <= 0 {
			out.Data[i] = 0
		} else {
			out.Data[i] = v
		}
	}
	return out
}

// Backward implements Layer. The gradient passes where the input was not
// ≤ 0, which is exactly where the cached output is not ≤ 0 (a NaN input
// passes through to the output, so it is not masked either).
func (r *ReLU) Backward(grad *tensor.Tensor, _ bool) *tensor.Tensor {
	dx := ensureArena(&r.arena).tensorFor(&r.dx, grad.Shape...)
	for i, v := range grad.Data {
		if r.out.Data[i] <= 0 {
			dx.Data[i] = 0
		} else {
			dx.Data[i] = v
		}
	}
	return dx
}

// ---------------------------------------------------------------------------
// MaxPool 2x2 stride 2

// MaxPool halves spatial dimensions with 2×2 windows (odd trailing
// rows/columns are dropped, as in the paper's "pool, /2" stages).
type MaxPool struct {
	arena  *Arena
	argmax []int
	inSh   []int
	out    *tensor.Tensor
	dx     *tensor.Tensor
}

// NewMaxPool builds the pooling layer.
func NewMaxPool() *MaxPool { return &MaxPool{} }

// Params implements Layer.
func (p *MaxPool) Params() []*Param { return nil }

// Forward implements Layer: pooling per (channel, sample) plane, recording
// the argmax for Backward.
func (p *MaxPool) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	if len(x.Shape) != 4 {
		panic(fmt.Sprintf("nn: MaxPool input %v, want (C,B,H,W)", x.Shape))
	}
	c, nb, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := h/2, w/2
	if oh < 1 || ow < 1 {
		panic(fmt.Sprintf("nn: MaxPool input %v too small", x.Shape))
	}
	a := ensureArena(&p.arena)
	out := a.tensorFor(&p.out, c, nb, oh, ow)
	argmax := a.ints(&p.argmax, out.Size())
	inSh := a.ints(&p.inSh, 4)
	copy(inSh, x.Shape)
	for plane := 0; plane < c*nb; plane++ {
		src := x.Data[plane*h*w : (plane+1)*h*w]
		pbase := plane * oh * ow
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				// Initialize from the first window element so NaN inputs
				// (diverged training) degrade gracefully instead of
				// leaving the argmax unset.
				bestIdx := 2*oy*w + 2*ox
				best := src[bestIdx]
				for dy := 0; dy < 2; dy++ {
					for dx := 0; dx < 2; dx++ {
						idx := (2*oy+dy)*w + 2*ox + dx
						if src[idx] > best {
							best = src[idx]
							bestIdx = idx
						}
					}
				}
				oi := pbase + oy*ow + ox
				out.Data[oi] = best
				argmax[oi] = plane*h*w + bestIdx
			}
		}
	}
	return out
}

// Backward implements Layer.
func (p *MaxPool) Backward(grad *tensor.Tensor, _ bool) *tensor.Tensor {
	dx := ensureArena(&p.arena).tensorFor(&p.dx, p.inSh...)
	dx.Fill(0)
	for oi, idx := range p.argmax {
		dx.Data[idx] += grad.Data[oi]
	}
	return dx
}

// ---------------------------------------------------------------------------
// Dense (fully connected)

// Dense is a fully connected layer on sample-major rows: its input is
// (B, In) and its output (B, Out). It is not a Layer — the network repacks
// the channel-major conv-head activations into rows around it.
type Dense struct {
	In, Out int
	Weight  *Param // (Out, In)
	Bias    *Param // (Out)

	arena *Arena
	x     *tensor.Tensor // cached input rows
	out   *tensor.Tensor
	dx    *tensor.Tensor
}

// NewDense builds an FC layer with Xavier-initialized weights.
func NewDense(rng *rand.Rand, name string, in, out int) *Dense {
	std := math.Sqrt(1.0 / float64(in))
	return &Dense{
		In: in, Out: out,
		Weight: newParam(name+".w", tensor.Randn(rng, std, out, in)),
		Bias:   newParam(name+".b", tensor.New(out)),
	}
}

// Params returns the weight and bias.
func (d *Dense) Params() []*Param { return []*Param{d.Weight, d.Bias} }

// ForwardRows evaluates the layer on x = (B, In) rows, caching x for
// BackwardRows. tensor.MatVecBatch streams each weight row once across the
// batch with the per-sample dot-product order unchanged.
func (d *Dense) ForwardRows(x *tensor.Tensor) *tensor.Tensor {
	nb := x.Shape[0]
	if x.Size() != nb*d.In {
		panic(fmt.Sprintf("nn: Dense input %v, want (B,%d)", x.Shape, d.In))
	}
	d.x = x
	y := ensureArena(&d.arena).tensorFor(&d.out, nb, d.Out)
	tensor.MatVecBatch(d.Out, d.In, nb, d.Weight.W.Data, x.Data, y.Data)
	for bi := 0; bi < nb; bi++ {
		row := y.Data[bi*d.Out : (bi+1)*d.Out]
		for o := range row {
			row[o] += d.Bias.W.Data[o]
		}
	}
	return y
}

// BackwardRows back-propagates (B, Out) gradient rows: per sample, in
// ascending order, dW accumulates a rank-1 update, db the gradient row, and
// dX = Wᵀ·dY fills the sample's (B, In) row.
func (d *Dense) BackwardRows(grad *tensor.Tensor) *tensor.Tensor {
	nb := grad.Shape[0]
	dx := ensureArena(&d.arena).tensorFor(&d.dx, nb, d.In)
	for bi := 0; bi < nb; bi++ {
		grow := grad.Data[bi*d.Out : (bi+1)*d.Out]
		tensor.AddOuter(d.Out, d.In, grow, d.x.Data[bi*d.In:(bi+1)*d.In], d.Weight.G.Data)
		for o, g := range grow {
			d.Bias.G.Data[o] += g
		}
		tensor.MatTVec(d.In, d.Out, d.Weight.W.Data, grow, dx.Data[bi*d.In:(bi+1)*d.In])
	}
	return dx
}

// ---------------------------------------------------------------------------
// Sequential & residual block

// Sequential chains layers.
type Sequential struct {
	Layers []Layer
}

// NewSequential builds a chain.
func NewSequential(layers ...Layer) *Sequential { return &Sequential{Layers: layers} }

// Params implements Layer.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// Forward implements Layer.
func (s *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range s.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward implements Layer: layers run in reverse; only the first layer
// inherits needDX (every other layer's dX is its predecessor's incoming
// gradient).
func (s *Sequential) Backward(grad *tensor.Tensor, needDX bool) *tensor.Tensor {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		grad = s.Layers[i].Backward(grad, needDX || i > 0)
	}
	return grad
}

// Residual is the paper's residual building block (Fig. 6(a)/(b)):
// out = ReLU(F(x) + x) where F is conv-BN-ReLU-conv-BN with matching
// channel counts.
type Residual struct {
	Body  *Sequential
	relu  *ReLU
	arena *Arena
	sum   *tensor.Tensor
	dx    *tensor.Tensor
}

// NewResidual builds a residual block of two 3×3 convolutions on c
// channels.
func NewResidual(rng *rand.Rand, name string, c int) *Residual {
	return &Residual{
		Body: NewSequential(
			NewConv2D(rng, name+".conv1", c, c, 3),
			NewBatchNorm(name+".bn1", c),
			NewReLU(),
			NewConv2D(rng, name+".conv2", c, c, 3),
			NewBatchNorm(name+".bn2", c),
		),
		relu: NewReLU(),
	}
}

// Params implements Layer.
func (r *Residual) Params() []*Param { return r.Body.Params() }

// Forward implements Layer.
func (r *Residual) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	f := r.Body.Forward(x, train)
	sum := ensureArena(&r.arena).tensorFor(&r.sum, x.Shape...)
	copy(sum.Data, f.Data)
	sum.AddInPlace(x)
	return r.relu.Forward(sum, train)
}

// Backward implements Layer. The post-sum ReLU gradient g feeds both the
// body and the shortcut; g lives in r.relu's buffer, which no body layer
// writes, so it can be passed through and reread without copying.
func (r *Residual) Backward(grad *tensor.Tensor, _ bool) *tensor.Tensor {
	g := r.relu.Backward(grad, true)
	dxBody := r.Body.Backward(g, true)
	dx := ensureArena(&r.arena).tensorFor(&r.dx, g.Shape...)
	copy(dx.Data, dxBody.Data)
	dx.AddInPlace(g) // shortcut path
	return dx
}
