package nn

// Two per-sample reference convolutions the Conv2D layer is tested against.
// Both work on one (InC, H, W) sample and read the layer's weights.
//
//   - naiveConvForward/naiveConvBackward are the direct six-loop
//     formulation the package originally shipped: an independent check,
//     compared to 1e-9 because its summation order differs.
//   - loweredConvForward/loweredConvBackward replay, element by element,
//     the im2col + blocked GEMM path the layer used to run: Im2col then
//     GemmNN forward, GemmNT over the column matrix for dW, and GemmTN then
//     Col2im for dX. They reproduce those kernels' per-element accumulation
//     order exactly (gemmKC reduction panels of aligned four-term groups;
//     GemmNT's sequential-vs-four-lane dot split; GemmTN's aligned groups
//     over the output channels), so the fused layer must match them bit
//     for bit. They assume H·W > 1, as the fused kernels do.

// naiveConvForward computes the convolution of one sample by direct
// summation, bias included.
func naiveConvForward(c *Conv2D, x []float64, h, w int) []float64 {
	pad := (c.K - 1) / 2
	out := make([]float64, c.OutC*h*w)
	for oc := 0; oc < c.OutC; oc++ {
		b := c.Bias.W.Data[oc]
		for oy := 0; oy < h; oy++ {
			for ox := 0; ox < w; ox++ {
				s := b
				for ic := 0; ic < c.InC; ic++ {
					for ky := 0; ky < c.K; ky++ {
						iy := oy + ky - pad
						if iy < 0 || iy >= h {
							continue
						}
						for kx := 0; kx < c.K; kx++ {
							ix := ox + kx - pad
							if ix < 0 || ix >= w {
								continue
							}
							s += c.Weight.W.Data[((oc*c.InC+ic)*c.K+ky)*c.K+kx] *
								x[(ic*h+iy)*w+ix]
						}
					}
				}
				out[(oc*h+oy)*w+ox] = s
			}
		}
	}
	return out
}

// naiveConvBackward back-propagates one sample by direct summation,
// accumulating into Weight.G/Bias.G and returning a fresh dX.
func naiveConvBackward(c *Conv2D, x, grad []float64, h, w int) []float64 {
	pad := (c.K - 1) / 2
	dx := make([]float64, len(x))
	for oc := 0; oc < c.OutC; oc++ {
		for oy := 0; oy < h; oy++ {
			for ox := 0; ox < w; ox++ {
				g := grad[(oc*h+oy)*w+ox]
				if g == 0 {
					continue
				}
				c.Bias.G.Data[oc] += g
				for ic := 0; ic < c.InC; ic++ {
					for ky := 0; ky < c.K; ky++ {
						iy := oy + ky - pad
						if iy < 0 || iy >= h {
							continue
						}
						for kx := 0; kx < c.K; kx++ {
							ix := ox + kx - pad
							if ix < 0 || ix >= w {
								continue
							}
							wi := ((oc*c.InC+ic)*c.K+ky)*c.K + kx
							xi := (ic*h+iy)*w + ix
							c.Weight.G.Data[wi] += g * x[xi]
							dx[xi] += g * c.Weight.W.Data[wi]
						}
					}
				}
			}
		}
	}
	return dx
}

// im2colOracle unrolls one (inC, h, w) sample into the (inC·k·k, h·w)
// column matrix of a stride-1 "same" convolution, zeros where the receptive
// field leaves the map.
func im2colOracle(x []float64, inC, h, w, k int) []float64 {
	pad := (k - 1) / 2
	hw := h * w
	cols := make([]float64, inC*k*k*hw)
	for ic := 0; ic < inC; ic++ {
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				r := (ic*k+ky)*k + kx
				for oy := 0; oy < h; oy++ {
					for ox := 0; ox < w; ox++ {
						iy, ix := oy+ky-pad, ox+kx-pad
						if iy >= 0 && iy < h && ix >= 0 && ix < w {
							cols[r*hw+oy*w+ox] = x[(ic*h+iy)*w+ix]
						}
					}
				}
			}
		}
	}
	return cols
}

// gemmKCOracle is the lowered GEMM's reduction-panel depth.
const gemmKCOracle = 128

// loweredConvForward is Im2col + GemmNN + bias for one sample.
func loweredConvForward(c *Conv2D, x []float64, h, w int) []float64 {
	hw := h * w
	ickk := c.InC * c.K * c.K
	cols := im2colOracle(x, c.InC, h, w, c.K)
	wt := c.Weight.W.Data
	out := make([]float64, c.OutC*hw)
	for oc := 0; oc < c.OutC; oc++ {
		a := wt[oc*ickk : (oc+1)*ickk]
		for j := 0; j < hw; j++ {
			s := 0.0
			for k0 := 0; k0 < ickk; k0 += gemmKCOracle {
				k1 := min(k0+gemmKCOracle, ickk)
				r := k0
				for ; r+3 < k1; r += 4 {
					s += a[r]*cols[r*hw+j] + a[r+1]*cols[(r+1)*hw+j] +
						a[r+2]*cols[(r+2)*hw+j] + a[r+3]*cols[(r+3)*hw+j]
				}
				for ; r < k1; r++ {
					s += a[r] * cols[r*hw+j]
				}
			}
			if b := c.Bias.W.Data[oc]; b != 0 {
				s += b
			}
			out[oc*hw+j] = s
		}
	}
	return out
}

// loweredConvBackward is the lowered backward for one sample: bias sums,
// dW += dY·colsᵀ (GemmNT), dcols = Wᵀ·dY (GemmTN), dX = Col2im(dcols). It
// accumulates into Weight.G/Bias.G and returns a fresh dX.
func loweredConvBackward(c *Conv2D, x, grad []float64, h, w int) []float64 {
	hw := h * w
	k := c.K
	pad := (k - 1) / 2
	ickk := c.InC * k * k
	cols := im2colOracle(x, c.InC, h, w, k)
	wt := c.Weight.W.Data
	for oc := 0; oc < c.OutC; oc++ {
		s := 0.0
		for _, g := range grad[oc*hw : (oc+1)*hw] {
			s += g
		}
		c.Bias.G.Data[oc] += s
	}
	// GemmNT: within each jc-wide column panel, aligned groups of four
	// columns take a single sequential accumulator, the ≤3 leftovers the
	// four-lane interleaved dot.
	jc := max(4, 32768/hw)
	for oc := 0; oc < c.OutC; oc++ {
		g := grad[oc*hw : (oc+1)*hw]
		for r := 0; r < ickk; r++ {
			col := cols[r*hw : (r+1)*hw]
			j0 := r / jc * jc
			j1 := min(j0+jc, ickk)
			var s float64
			if r < j0+(j1-j0)&^3 {
				for t := range g {
					s += g[t] * col[t]
				}
			} else {
				var s0, s1, s2, s3 float64
				t := 0
				for ; t+3 < hw; t += 4 {
					s0 += g[t] * col[t]
					s1 += g[t+1] * col[t+1]
					s2 += g[t+2] * col[t+2]
					s3 += g[t+3] * col[t+3]
				}
				s = s0 + s1 + s2 + s3
				for ; t < hw; t++ {
					s += g[t] * col[t]
				}
			}
			c.Weight.G.Data[oc*ickk+r] += s
		}
	}
	// GemmTN (aligned four-term groups over the output channels, then
	// singles), then Col2im's scatter-add in ascending row order.
	dx := make([]float64, len(x))
	for r := 0; r < ickk; r++ {
		ic, ky, kx := r/(k*k), r/k%k, r%k
		for oy := 0; oy < h; oy++ {
			for ox := 0; ox < w; ox++ {
				j := oy*w + ox
				d := 0.0
				l := 0
				for ; l+3 < c.OutC; l += 4 {
					d += wt[l*ickk+r]*grad[l*hw+j] + wt[(l+1)*ickk+r]*grad[(l+1)*hw+j] +
						wt[(l+2)*ickk+r]*grad[(l+2)*hw+j] + wt[(l+3)*ickk+r]*grad[(l+3)*hw+j]
				}
				for ; l < c.OutC; l++ {
					d += wt[l*ickk+r] * grad[l*hw+j]
				}
				iy, ix := oy+ky-pad, ox+kx-pad
				if iy >= 0 && iy < h && ix >= 0 && ix < w {
					dx[(ic*h+iy)*w+ix] += d
				}
			}
		}
	}
	return dx
}
