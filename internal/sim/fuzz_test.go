package sim

import (
	"testing"

	"routerless/internal/rec"
	"routerless/internal/rl"
	"routerless/internal/topo"
	"routerless/internal/traffic"
)

// The fuzz targets decode bytes into a network, a traffic source and a run
// and hold the production model to its reference bit for bit: the Result,
// every IntervalStats sample, and the (ID, Done, Hops) of every completed
// packet in delivery order. Seed corpora live in testdata/fuzz.

// fuzzBytes reads a fuzz input one byte at a time, yielding zeros once
// it runs out so that every input decodes.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// delivered is one completed packet as an observer saw it.
type delivered struct{ id, done, hops int }

// fuzzRun decodes the shared traffic and run parameters.
func fuzzRun(in *fuzzBytes, n, linkBits int) (func() Source, RunConfig) {
	pattern := traffic.Patterns[in.next()%len(traffic.Patterns)]
	rate := 0.5 * float64(in.next()) / 255
	seed := int64(in.next()<<8 | in.next())
	mkSrc := func() Source { return traffic.NewInjector(n, n, pattern, rate, linkBits, seed) }
	cfg := RunConfig{WarmupCycles: 150, MeasureCycles: 500, DrainCycles: 2000, ProbeEvery: 7 + in.next()%64}
	return mkSrc, cfg
}

// runLogged runs net and returns its Result, interval samples and
// delivery log.
func runLogged(net Network, src Source, cfg RunConfig) (Result, []IntervalStats, []delivered) {
	var iv []IntervalStats
	var log []delivered
	observe := func(p *Packet) { log = append(log, delivered{p.ID, p.Done, p.Hops}) }
	switch n := net.(type) {
	case ringSim:
		n.OnDeliver(observe)
	case *Mesh:
		n.onDeliver = observe
	case *refMesh:
		n.onDeliver = observe
	}
	cfg.OnInterval = func(s IntervalStats) { iv = append(iv, s) }
	return Run(net, src, cfg), iv, log
}

// compareRuns fails unless the two runs' outputs are identical.
func compareRuns(t *testing.T, ref, got Network, mkSrc func(net Network) Source, cfg RunConfig) {
	t.Helper()
	rres, riv, rlog := runLogged(ref, mkSrc(ref), cfg)
	nres, niv, nlog := runLogged(got, mkSrc(got), cfg)
	if rres != nres {
		t.Fatalf("Result diverges from the reference\n ref: %+v\n new: %+v", rres, nres)
	}
	if len(riv) != len(niv) {
		t.Fatalf("interval count %d (ref) vs %d (new)", len(riv), len(niv))
	}
	for i := range riv {
		if riv[i] != niv[i] {
			t.Fatalf("interval %d diverges\n ref: %+v\n new: %+v", i, riv[i], niv[i])
		}
	}
	if len(rlog) != len(nlog) {
		t.Fatalf("%d deliveries (ref) vs %d (new)", len(rlog), len(nlog))
	}
	for i := range rlog {
		if rlog[i] != nlog[i] {
			t.Fatalf("delivery %d diverges: ref %+v new %+v", i, rlog[i], nlog[i])
		}
	}
}

// failingSource fails loops of net at scheduled cycles and drops the
// requests the degraded network cannot route (Inject panics on them), the
// same way on both sides of a comparison.
type failingSource struct {
	src   Source
	net   ringSim
	grid  int
	fails [][2]int // (cycle, loop), ascending cycle
	reqs  []traffic.Request
}

func (s *failingSource) Tick() []traffic.Request {
	for len(s.fails) > 0 && s.fails[0][0] <= s.net.Cycle() {
		s.net.FailLoop(s.fails[0][1])
		s.fails = s.fails[1:]
	}
	s.reqs = s.reqs[:0]
	for _, r := range s.src.Tick() {
		if s.net.Degraded().Reachable(topo.NodeFromID(r.Src, s.grid), topo.NodeFromID(r.Dst, s.grid)) {
			s.reqs = append(s.reqs, r)
		}
	}
	return s.reqs
}

// FuzzRingMatchesReference: grid 3–6, REC or a greedy-completed design,
// EjectPorts 1–3, ExtensionBuffers 0–4, InjectPerCycle 1–2, any synthetic
// pattern at rate 0–0.5, and up to three FailLoops at any cycle of the run.
func FuzzRingMatchesReference(f *testing.F) {
	f.Add([]byte{1, 0, 0, 4, 0, 0, 60, 0, 7, 10, 0})
	f.Add([]byte{3, 1, 2, 0, 1, 2, 255, 1, 2, 3, 3, 40, 5, 90, 9, 200, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		n := 3 + in.next()%4
		tp := rec.MustGenerate(n)
		if in.next()%2 == 1 {
			env := rl.NewEnvFrom(rec.MustGenerateLite(n), n+in.next()%n)
			rl.GreedyComplete(env)
			tp = env.Topology()
			if !tp.FullyConnected() {
				t.Skip("greedy design not fully connected")
			}
		}
		cfg := RingConfig{
			EjectPorts:       1 + in.next()%3,
			ExtensionBuffers: in.next() % 5,
			InjectPerCycle:   1 + in.next()%2,
		}
		mkInj, rcfg := fuzzRun(&in, n, 128)
		var fails [][2]int
		for k := in.next() % 4; k > 0; k-- {
			cycle := 4 * in.next()
			at := len(fails)
			for at > 0 && fails[at-1][0] > cycle {
				at--
			}
			fails = append(fails[:at], append([][2]int{{cycle, in.next() % tp.NumLoops()}}, fails[at:]...)...)
		}
		mkSrc := func(net Network) Source {
			return &failingSource{src: mkInj(), net: net.(ringSim), grid: n, fails: fails}
		}
		ref, got := newRefRing(tp, cfg), NewRing(tp, cfg)
		compareRuns(t, ref, got, mkSrc, rcfg)
		compareRingCounters(t, ref, got)
	})
}

// FuzzMeshMatchesReference: grid 3–6, 1–3 VCs, buffer depth 1–4, router
// delay 0–2, any synthetic pattern at rate 0–0.5.
func FuzzMeshMatchesReference(f *testing.F) {
	f.Add([]byte{1, 1, 3, 2, 0, 60, 0, 7, 10})
	f.Add([]byte{3, 0, 0, 0, 2, 255, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		n := 3 + in.next()%4
		cfg := MeshConfig{VCs: 1 + in.next()%3, BufferFlits: 1 + in.next()%4, RouterDelay: in.next() % 3}
		mkInj, rcfg := fuzzRun(&in, n, 256)
		compareRuns(t, newRefMesh(n, n, cfg), NewMesh(n, n, cfg), func(Network) Source { return mkInj() }, rcfg)
	})
}
