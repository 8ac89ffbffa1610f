//go:build !amd64

package tensor

func axpy4(c, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64) {
	axpy4Go(c, b0, b1, b2, b3, a0, a1, a2, a3)
}

func axpy1(c, b []float64, a float64) { axpy1Go(c, b, a) }

func dot4x4(g [][]float64, p *[4][]float64, s *[16]float64) { dot4x4Go(g, p, s) }
