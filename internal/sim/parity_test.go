package sim

import (
	"math/rand"
	"sync"
	"testing"

	"routerless/internal/obs"
	"routerless/internal/rec"
	"routerless/internal/topo"
	"routerless/internal/traffic"
)

// These tests hold the event-driven Ring and the flat-array Mesh to the
// dense reference walks in refring_test.go and refmesh_test.go: two runs
// differing only in the network model — same topology, same injector seed
// — must produce identical Result structs and identical interval-stat
// streams. The latter include ActiveLoops/ActiveRouters, where the
// reference reports ground truth and the production model its counters, so
// the comparison doubles as an occupancy-bookkeeping oracle.

// ringSim is the surface Ring and refRing share.
type ringSim interface {
	Network
	FailLoop(idx int)
	Degraded() *topo.RoutingTable
	OnDeliver(fn func(*Packet))
	ActiveLoops() int
	Circulations() int64
	InjectedFlits() int64
	DeliveredFlits() int64
	DroppedFlits() int64
	BufferOccupancy() int
	LoopUtilization() []float64
}

// newRingModel builds the reference ring when ref is set, else Ring.
func newRingModel(t *topo.Topology, cfg RingConfig, ref bool) ringSim {
	if ref {
		return newRefRing(t, cfg)
	}
	return NewRing(t, cfg)
}

// newMeshModel builds an n×n reference mesh when ref is set, else Mesh.
func newMeshModel(n int, cfg MeshConfig, ref bool) Network {
	if ref {
		return newRefMesh(n, n, cfg)
	}
	return NewMesh(n, n, cfg)
}

// runPair runs the same (network factory, source factory, run config) on
// the reference and the production model and fails the test on any
// divergence. mkHook, when non-nil, is called once per run (so trigger
// state resets) for an OnInterval hook chained before the capture.
func runPair(t *testing.T, label string, mkNet func(ref bool) Network, mkSrc func() Source, cfg RunConfig, mkHook func() func(IntervalStats)) {
	t.Helper()
	if cfg.ProbeEvery == 0 {
		cfg.ProbeEvery = 50
	}
	runOne := func(ref bool) (Result, []IntervalStats) {
		var hook func(IntervalStats)
		if mkHook != nil {
			hook = mkHook()
		}
		var iv []IntervalStats
		c := cfg
		c.OnInterval = func(s IntervalStats) {
			if hook != nil {
				hook(s)
			}
			iv = append(iv, s)
		}
		return Run(mkNet(ref), mkSrc(), c), iv
	}
	rres, riv := runOne(true)
	nres, niv := runOne(false)
	if rres != nres {
		t.Fatalf("%s: Result diverges from the reference\n ref: %+v\n new: %+v", label, rres, nres)
	}
	if len(riv) != len(niv) {
		t.Fatalf("%s: interval count %d (ref) vs %d (new)", label, len(riv), len(niv))
	}
	for i := range riv {
		if riv[i] != niv[i] {
			t.Fatalf("%s: interval %d diverges\n ref: %+v\n new: %+v", label, i, riv[i], niv[i])
		}
	}
	if rres.PacketsSent == 0 {
		t.Fatalf("%s: degenerate trial, no packets sent", label)
	}
}

// TestRingSparseMatchesDenseRandomized sweeps grid sizes, traffic
// patterns, seeds and rates from near-idle to past ring saturation. Some
// trials fail a random loop at the first measurement interval, exercising
// FailLoop's calendar purge mid-run.
func TestRingSparseMatchesDenseRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 12; trial++ {
		n := 3 + rng.Intn(3)
		tp := rec.MustGenerate(n)
		cfg := RingConfig{
			EjectPorts:       1 + rng.Intn(2),
			ExtensionBuffers: 1 + rng.Intn(6),
			InjectPerCycle:   1 + rng.Intn(2),
		}
		pattern := traffic.Patterns[rng.Intn(len(traffic.Patterns))]
		rate := []float64{0.005, 0.02, 0.08, 0.3}[rng.Intn(4)]
		seed := rng.Int63()
		// Some trials fail a loop mid-run. Run injects without a
		// reachability check, so pick a loop whose failure keeps the
		// network connected (skip the failure if none exists).
		failAt := -1
		if trial%3 == 0 {
			for _, cand := range rng.Perm(len(tp.Loops())) {
				probe := NewRing(tp, cfg)
				probe.FailLoop(cand)
				if fullyConnected(probe, n) {
					failAt = cand
					break
				}
			}
		}
		var cur ringSim
		mkNet := func(ref bool) Network {
			cur = newRingModel(tp, cfg, ref)
			return cur
		}
		mkSrc := func() Source {
			return traffic.NewInjector(n, n, pattern, rate, 128, seed)
		}
		rcfg := RunConfig{WarmupCycles: 300, MeasureCycles: 1200, DrainCycles: 6000, ProbeEvery: 37}
		var mkHook func() func(IntervalStats)
		if failAt >= 0 {
			// Fail the same loop at the same interval in both runs: the
			// probe cadence is identical, so the failure lands on the
			// same cycle.
			mkHook = func() func(IntervalStats) {
				fired := false
				return func(IntervalStats) {
					if !fired {
						fired = true
						cur.FailLoop(failAt)
					}
				}
			}
		}
		runPair(t, "ring randomized", mkNet, mkSrc, rcfg, mkHook)
	}
}

// fullyConnected reports whether every src->dst pair routes on the ring's
// current (possibly degraded) routing table.
func fullyConnected(r ringSim, grid int) bool {
	n := grid * grid
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			if !r.Degraded().Reachable(topo.NodeFromID(s, grid), topo.NodeFromID(d, grid)) {
				return false
			}
		}
	}
	return true
}

// TestMeshSparseMatchesDenseRandomized is the mesh-side oracle: random VC
// counts, buffer depths, pipeline delays, patterns and rates, including
// past-saturation loads where wormhole backpressure and VC arbitration
// are fully exercised.
func TestMeshSparseMatchesDenseRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(3)
		cfg := MeshConfig{
			VCs:         1 + rng.Intn(3),
			BufferFlits: 2 + rng.Intn(5),
			RouterDelay: rng.Intn(3),
		}
		pattern := traffic.Patterns[rng.Intn(len(traffic.Patterns))]
		rate := []float64{0.005, 0.02, 0.1, 0.4}[rng.Intn(4)]
		seed := rng.Int63()
		mkNet := func(ref bool) Network { return newMeshModel(n, cfg, ref) }
		mkSrc := func() Source {
			return traffic.NewInjector(n, n, pattern, rate, 256, seed)
		}
		runPair(t, "mesh randomized", mkNet, mkSrc,
			RunConfig{WarmupCycles: 300, MeasureCycles: 1200, DrainCycles: 8000, ProbeEvery: 41}, nil)
	}
}

// TestSparseMatchesDenseHotspot pins the oracle under hotspot traffic,
// where ejection-port contention parks flits in extension buffers (ring)
// and concentrates active routers (mesh).
func TestSparseMatchesDenseHotspot(t *testing.T) {
	tp := rec.MustGenerate(4)
	runPair(t, "ring hotspot",
		func(ref bool) Network { return newRingModel(tp, DefaultRingConfig(), ref) },
		func() Source { return traffic.NewHotspotInjector(4, 4, 0.05, 0.6, []int{5}, 128, 7) },
		RunConfig{WarmupCycles: 300, MeasureCycles: 1500, DrainCycles: 8000}, nil)
	runPair(t, "mesh hotspot",
		func(ref bool) Network { return newMeshModel(4, MeshN(2), ref) },
		func() Source { return traffic.NewHotspotInjector(4, 4, 0.05, 0.6, []int{5}, 256, 7) },
		RunConfig{WarmupCycles: 300, MeasureCycles: 1500, DrainCycles: 8000}, nil)
}

// TestSparseMatchesDenseAppModel pins the oracle under the PARSEC app
// models, whose bursty multi-class traffic is the least uniform source in
// the tree.
func TestSparseMatchesDenseAppModel(t *testing.T) {
	prof, err := traffic.ParsecProfile("fluidanimate")
	if err != nil {
		t.Fatal(err)
	}
	tp := rec.MustGenerate(4)
	runPair(t, "ring parsec",
		func(ref bool) Network { return newRingModel(tp, DefaultRingConfig(), ref) },
		func() Source { return traffic.NewAppInjector(prof, 4, 4, 128, 11) },
		RunConfig{WarmupCycles: 300, MeasureCycles: 1500, DrainCycles: 8000}, nil)
	runPair(t, "mesh parsec",
		func(ref bool) Network { return newMeshModel(4, MeshN(1), ref) },
		func() Source { return traffic.NewAppInjector(prof, 4, 4, 256, 11) },
		RunConfig{WarmupCycles: 300, MeasureCycles: 1500, DrainCycles: 8000}, nil)
}

// TestSparseMatchesDenseTenByTen runs the benchmark's shapes — the 10×10
// REC ring and Mesh-2 under uniform traffic at 0.02 and 0.25 — where loop
// lengths, wheel wrap-around and arrival-bucket sizes are largest.
func TestSparseMatchesDenseTenByTen(t *testing.T) {
	if testing.Short() {
		t.Skip("10x10 reference runs")
	}
	tp := rec.MustGenerate(10)
	for _, rate := range []float64{0.02, 0.25} {
		runPair(t, "ring 10x10",
			func(ref bool) Network { return newRingModel(tp, DefaultRingConfig(), ref) },
			func() Source { return traffic.NewInjector(10, 10, traffic.UniformRandom, rate, 128, 5) },
			RunConfig{WarmupCycles: 300, MeasureCycles: 1500, DrainCycles: 3000}, nil)
		runPair(t, "mesh 10x10",
			func(ref bool) Network { return newMeshModel(10, MeshN(2), ref) },
			func() Source { return traffic.NewInjector(10, 10, traffic.UniformRandom, rate, 256, 5) },
			RunConfig{WarmupCycles: 300, MeasureCycles: 1000, DrainCycles: 2000}, nil)
	}
}

// TestRingSparseMatchesDenseFailLoopManual drives reference and production
// rings cycle by cycle with identical injections and a mid-run FailLoop,
// checking every per-packet outcome and every counter — a finer-grained
// comparison than Run's aggregates, covering the dropped-packet paths the
// Result struct folds away.
func TestRingSparseMatchesDenseFailLoopManual(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	for trial := 0; trial < 6; trial++ {
		n := 4
		tp := rec.MustGenerate(n)
		rnet, nnet := newRingModel(tp, DefaultRingConfig(), true), newRingModel(tp, DefaultRingConfig(), false)
		src := traffic.NewInjector(n, n, traffic.UniformRandom, 0.08, 128, rng.Int63())
		failCycle := 100 + rng.Intn(200)
		failIdx := rng.Intn(len(tp.Loops()))
		var rpkts, npkts []*Packet
		for cyc := 0; cyc < 800; cyc++ {
			if cyc == failCycle {
				rnet.FailLoop(failIdx)
				nnet.FailLoop(failIdx)
			}
			for _, r := range src.Tick() {
				// A failed loop can disconnect pairs; Inject panics on
				// unroutable packets, so skip them (identically on both
				// sides — Degraded reflects the same failure).
				if !rnet.Degraded().Reachable(topo.NodeFromID(r.Src, n), topo.NodeFromID(r.Dst, n)) {
					continue
				}
				rp := &Packet{Src: r.Src, Dst: r.Dst, NumFlits: r.NumFlits, Injected: rnet.Cycle(), Done: -1}
				np := &Packet{Src: r.Src, Dst: r.Dst, NumFlits: r.NumFlits, Injected: nnet.Cycle(), Done: -1}
				rnet.Inject(rp)
				nnet.Inject(np)
				rpkts = append(rpkts, rp)
				npkts = append(npkts, np)
			}
			rnet.Step()
			nnet.Step()
			if ra, na := rnet.ActiveLoops(), nnet.ActiveLoops(); ra != na {
				t.Fatalf("trial %d cycle %d: ActiveLoops ref %d new %d", trial, cyc, ra, na)
			}
		}
		for i := range rpkts {
			if rpkts[i].Done != npkts[i].Done || rpkts[i].Hops != npkts[i].Hops {
				t.Fatalf("trial %d packet %d: ref done=%d hops=%d, new done=%d hops=%d",
					trial, i, rpkts[i].Done, rpkts[i].Hops, npkts[i].Done, npkts[i].Hops)
			}
		}
		compareRingCounters(t, rnet, nnet)
	}
}

// compareRingCounters fails unless every Ring counter and the per-loop
// utilization of nnet equal the reference's.
func compareRingCounters(t *testing.T, rnet, nnet ringSim) {
	t.Helper()
	type counters struct {
		inj, del, drop, circ int64
		inflight, buf, act   int
		util                 float64
	}
	get := func(n ringSim) counters {
		return counters{n.InjectedFlits(), n.DeliveredFlits(), n.DroppedFlits(), n.Circulations(),
			n.InFlight(), n.BufferOccupancy(), n.ActiveLoops(), n.LinkUtilization()}
	}
	if rc, nc := get(rnet), get(nnet); rc != nc {
		t.Fatalf("counters diverge:\n ref: %+v\n new: %+v", rc, nc)
	}
	ru, nu := rnet.LoopUtilization(), nnet.LoopUtilization()
	for li := range ru {
		if ru[li] != nu[li] {
			t.Fatalf("loop %d: utilization ref %v new %v", li, ru[li], nu[li])
		}
	}
}

// TestParallelSparseMatchesDenseUnderRace runs a concurrent sweep where
// every point simulates the same workload on Ring and on the reference, on
// worker goroutines sharing a metrics registry. `make race` runs this
// package under -race, so it both pins the parity at sweep granularity and
// proves the production models share no state across networks.
func TestParallelSparseMatchesDenseUnderRace(t *testing.T) {
	reg := obs.NewRegistry()
	tp := rec.MustGenerate(4)
	const points, workers = 16, 4
	type pair struct{ ref, new Result }
	res := make([]pair, points)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				rate := 0.01 + 0.02*float64(i%4)
				seed := int64(100 + i)
				cfg := RunConfig{WarmupCycles: 200, MeasureCycles: 800, DrainCycles: 4000, Metrics: reg}
				runOne := func(net Network) Result {
					return Run(net, traffic.NewInjector(4, 4, traffic.UniformRandom, rate, 128, seed), cfg)
				}
				res[i] = pair{ref: runOne(newRefRing(tp, DefaultRingConfig())), new: runOne(NewRing(tp, DefaultRingConfig()))}
				if i%2 == 1 {
					mcfg := MeshN(i % 3)
					mres := Run(NewMesh(4, 4, mcfg), traffic.NewInjector(4, 4, traffic.UniformRandom, rate, 256, seed), cfg)
					rres := Run(newRefMesh(4, 4, mcfg), traffic.NewInjector(4, 4, traffic.UniformRandom, rate, 256, seed), cfg)
					if mres != rres {
						t.Errorf("point %d: mesh diverges from the reference\n ref: %+v\n new: %+v", i, rres, mres)
					}
				}
			}
		}()
	}
	for i := 0; i < points; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, p := range res {
		if p.ref != p.new {
			t.Fatalf("point %d: ring diverges from the reference\n ref: %+v\n new: %+v", i, p.ref, p.new)
		}
		if p.new.PacketsDone == 0 {
			t.Fatalf("point %d delivered nothing", i)
		}
	}
}

// opaqueNet hides the concrete network type from Run's recycle/counter
// type switch, forcing the drain loop onto its pending() rescan fallback.
type opaqueNet struct{ Network }

// TestDrainCounterMatchesRescan pins the drain-phase satellite: the O(1)
// measured-in-flight counter must stop the drain on exactly the cycle the
// old full-ledger rescan did. The opaque wrapper runs the rescan path;
// the bare network runs the counter path; Results must match, including
// a saturated case where the drain bound is what ends the run.
func TestDrainCounterMatchesRescan(t *testing.T) {
	tp := rec.MustGenerate(4)
	for _, rate := range []float64{0.03, 0.4} {
		mkSrc := func() Source { return traffic.NewInjector(4, 4, traffic.UniformRandom, rate, 128, 3) }
		cfg := RunConfig{WarmupCycles: 200, MeasureCycles: 1000, DrainCycles: 3000}
		hooked := Run(NewRing(tp, DefaultRingConfig()), mkSrc(), cfg)
		fallback := Run(opaqueNet{NewRing(tp, DefaultRingConfig())}, mkSrc(), cfg)
		if hooked != fallback {
			t.Fatalf("rate %v: counter drain diverges from rescan drain\n counter: %+v\n rescan:  %+v", rate, hooked, fallback)
		}
	}
}

// TestActiveGaugesInIntervalStats checks the observability satellite: a
// ring run reports ActiveLoops (and no ActiveRouters), a mesh run the
// reverse, and the counts stay within [0, topology size].
func TestActiveGaugesInIntervalStats(t *testing.T) {
	tp := rec.MustGenerate(4)
	var ringIv, meshIv []IntervalStats
	Run(NewRing(tp, DefaultRingConfig()),
		traffic.NewInjector(4, 4, traffic.UniformRandom, 0.05, 128, 5),
		RunConfig{WarmupCycles: 200, MeasureCycles: 1000, DrainCycles: 3000,
			ProbeEvery: 50, OnInterval: func(s IntervalStats) { ringIv = append(ringIv, s) }})
	Run(NewMesh(4, 4, MeshN(2)),
		traffic.NewInjector(4, 4, traffic.UniformRandom, 0.05, 256, 5),
		RunConfig{WarmupCycles: 200, MeasureCycles: 1000, DrainCycles: 3000,
			ProbeEvery: 50, OnInterval: func(s IntervalStats) { meshIv = append(meshIv, s) }})
	if len(ringIv) == 0 || len(meshIv) == 0 {
		t.Fatal("no interval samples captured")
	}
	sawRingActive, sawMeshActive := false, false
	for _, s := range ringIv {
		if s.ActiveRouters != -1 {
			t.Fatalf("ring interval reports ActiveRouters=%d, want -1", s.ActiveRouters)
		}
		if s.ActiveLoops < 0 || s.ActiveLoops > len(tp.Loops()) {
			t.Fatalf("ring ActiveLoops=%d out of range [0,%d]", s.ActiveLoops, len(tp.Loops()))
		}
		if s.ActiveLoops > 0 {
			sawRingActive = true
		}
	}
	for _, s := range meshIv {
		if s.ActiveLoops != -1 {
			t.Fatalf("mesh interval reports ActiveLoops=%d, want -1", s.ActiveLoops)
		}
		if s.ActiveRouters < 0 || s.ActiveRouters > 16 {
			t.Fatalf("mesh ActiveRouters=%d out of range [0,16]", s.ActiveRouters)
		}
		if s.ActiveRouters > 0 {
			sawMeshActive = true
		}
	}
	if !sawRingActive || !sawMeshActive {
		t.Fatalf("gauges never went positive under load (ring %v, mesh %v)", sawRingActive, sawMeshActive)
	}
}
