package exp

import (
	"reflect"
	"testing"

	"routerless/internal/obs"
	"routerless/internal/sim"
	"routerless/internal/traffic"
)

func TestRunParallelOrderAndWorkerCounters(t *testing.T) {
	reg := obs.NewRegistry()
	out := RunParallel(100, 8, reg, func(i int) int { return i * i })
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
	var points int64
	for name, v := range reg.Snapshot().Counters {
		if len(name) > 11 && name[:11] == "exp.worker." {
			points += v
		}
	}
	if points != 100 {
		t.Fatalf("worker point counters sum to %d, want 100", points)
	}
}

// TestRunParallelSimsUnderRace exercises the worker pool with real
// simulations and a shared metrics registry; `make ci` runs this package
// under -race, so any sharing between worker networks or in the obs
// layer fails there.
func TestRunParallelSimsUnderRace(t *testing.T) {
	reg := obs.NewRegistry()
	tpo := RECDesign(4)
	res := RunParallel(16, 8, reg, func(i int) sim.Result {
		return RingRun(tpo, traffic.UniformRandom, 0.02+0.005*float64(i%4), testOpts)
	})
	for i, r := range res {
		if r.PacketsDone == 0 {
			t.Fatalf("job %d delivered nothing", i)
		}
	}
}

// TestParallelSweepMatchesSequential pins the harness determinism
// contract: speculative batching changes wall-clock, never output.
func TestParallelSweepMatchesSequential(t *testing.T) {
	tpo := RECDesign(4)
	run := func(rate float64) sim.Result {
		return RingRun(tpo, traffic.UniformRandom, rate, testOpts)
	}
	rates := []float64{0.005, 0.05, 0.1, 0.2, 0.3, 0.45, 0.6, 0.8, 0.9}
	seq := Sweep(run, rates)
	for _, j := range []int{2, 4, 8, 16} {
		par := ParallelSweep(run, rates, j)
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("j=%d: parallel sweep diverges from sequential\nseq: %v\npar: %v", j, seq, par)
		}
	}
}

// TestSweepZeroLoadBaselineGuard: a first point that delivers no packets
// (AvgLatency 0) must not become the zero-load baseline — the old code
// froze zeroLoad at 0 and the `latency > 3*zeroLoad` test ended the
// sweep at the second point.
func TestSweepZeroLoadBaselineGuard(t *testing.T) {
	results := []sim.Result{
		{PacketsDone: 0, AvgLatency: 0},
		{PacketsDone: 50, AvgLatency: 20},
		{PacketsDone: 50, AvgLatency: 25},
		{PacketsDone: 50, AvgLatency: 90}, // > 3x the 20-cycle baseline
		{PacketsDone: 50, AvgLatency: 95},
	}
	run := func(rate float64) sim.Result { return results[int(rate)] }
	pts := Sweep(run, []float64{0, 1, 2, 3, 4})
	if len(pts) != 4 {
		t.Fatalf("sweep kept %d points, want 4 (stop at the 3x-baseline point)", len(pts))
	}
	if pts[3].Result.AvgLatency != 90 {
		t.Fatalf("last point latency %.0f, want 90", pts[3].Result.AvgLatency)
	}
}

// TestSweepSaturatedFirstPointStops: saturation on the very first point
// ends the sweep immediately, after recording that point.
func TestSweepSaturatedFirstPointStops(t *testing.T) {
	run := func(rate float64) sim.Result {
		return sim.Result{PacketsDone: 10, AvgLatency: 500, Saturated: true}
	}
	for _, j := range []int{1, 4} {
		pts := ParallelSweep(run, []float64{0.1, 0.2, 0.3}, j)
		if len(pts) != 1 {
			t.Fatalf("j=%d: %d points, want 1", j, len(pts))
		}
	}
}

// TestReportsParallelIdenticalToSequential is the end-to-end determinism
// smoke: a figure and a table rendered with 8 workers are byte-identical
// to the sequential rendering for the same seed.
func TestReportsParallelIdenticalToSequential(t *testing.T) {
	seqOpts := Options{Quick: true, Seed: 1, Workers: 1}
	parOpts := Options{Quick: true, Seed: 1, Workers: 8}
	if seq, par := Figure12ParsecHops(seqOpts).String(), Figure12ParsecHops(parOpts).String(); seq != par {
		t.Fatalf("Figure 12 diverges with 8 workers:\n--- sequential\n%s\n--- parallel\n%s", seq, par)
	}
	if seq, par := Table5ParsecExecTime(seqOpts).String(), Table5ParsecExecTime(parOpts).String(); seq != par {
		t.Fatalf("Table 5 diverges with 8 workers:\n--- sequential\n%s\n--- parallel\n%s", seq, par)
	}
}
