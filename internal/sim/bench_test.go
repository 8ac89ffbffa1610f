package sim

import (
	"testing"

	"routerless/internal/rec"
	"routerless/internal/traffic"
)

// BenchmarkSimRunDense is the root package's BenchmarkSimRun on the
// reference models (refRing, refMesh): the same rows, run config and
// seeds, so the two benchmarks form a before/after pair for the
// event-driven ring and the flat mesh (`make bench-sim`).
func BenchmarkSimRunDense(b *testing.B) {
	cfg := RunConfig{WarmupCycles: 500, MeasureCycles: 2000, DrainCycles: 4000}
	type row struct {
		name string
		n    int
		rate float64
	}
	rows := []row{
		{"8x8-r0.01", 8, 0.01}, {"8x8-r0.02", 8, 0.02}, {"8x8", 8, 0.1},
		{"10x10-r0.02", 10, 0.02}, {"10x10-r0.25", 10, 0.25},
	}
	for _, mesh := range []bool{false, true} {
		for _, r := range rows {
			r, kind := r, "ring"
			mk := func() (Network, int) { return newRefMesh(r.n, r.n, MeshN(2)), 256 }
			if mesh {
				kind = "mesh"
			} else {
				t := rec.MustGenerate(r.n)
				mk = func() (Network, int) { return newRefRing(t, DefaultRingConfig()), 128 }
			}
			b.Run(kind+r.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					net, bits := mk()
					res := Run(net, traffic.NewInjector(r.n, r.n, traffic.UniformRandom, r.rate, bits, 1), cfg)
					if res.PacketsDone == 0 {
						b.Fatal("no packets delivered")
					}
				}
			})
		}
	}
}
