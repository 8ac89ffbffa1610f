package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"runtime/debug"
	"time"

	"routerless/internal/drl"
	"routerless/internal/obs"
	"routerless/internal/rec"
	"routerless/internal/rl"
	"routerless/internal/sim"
	"routerless/internal/topo"
	"routerless/internal/traffic"
)

// traceCapacity is the span ring size per trace shard, large enough that no
// span of one session is overwritten, so episode percentiles see them all.
const traceCapacity = 1 << 17

// session is one repetition of a workload: set up, search, simulate, check.
type session struct {
	traced bool
	input  int // index of the run's input this session ran on
	// designs times rec.Generate, rl.GreedyComplete and building the
	// simulated networks and traffic sources; searcher times drl.New.
	designs, searcher time.Duration
	// search is the wall time of Searcher.Run.
	search    time.Duration
	decisions int
	// episodes, valid, treeSize and bestHops summarize the drl.Result; the
	// session keeps no designs, so runs hold no memory across sessions.
	episodes, valid, treeSize int
	bestHops                  float64
	recHops                   float64
	greedyHops                float64
	// points hold the host time of each sim.Run call alone.
	points []pointRun
	wall   time.Duration
	// peakRSS is the largest resident set size, in MiB, sampled while the
	// session ran.
	peakRSS float64
	// outputs are the checked results, one per operation, in run order.
	outputs []output
	// failures maps a failed operation to its first failed check.
	failures map[string]string
	trace    *traceSample
}

// pointRun is one simulated point of a session.
type pointRun struct {
	p      point
	res    sim.Result
	cycles int // cycles stepped: warmup, measure and drain
	// wall is the sim.Run call's wall time.
	wall time.Duration
	// Traced sessions only: active-set samples from IntervalStats with
	// their denominators, and the time of the traffic source's Tick alone.
	activeSum, activeSamples int
	units                    int
	tickNS, ticks            int64
}

// output is one checked operation result in canonical text form.
type output struct {
	name, value string
}

func (s *session) fail(op, format string, args ...any) {
	if _, dup := s.failures[op]; !dup {
		s.failures[op] = fmt.Sprintf(format, args...)
	}
}

// simWall is the wall time of the session's sim.Run calls.
func (s *session) simWall() time.Duration {
	var d time.Duration
	for _, p := range s.points {
		d += p.wall
	}
	return d
}

func (s *session) simCycles() int {
	n := 0
	for _, p := range s.points {
		n += p.cycles
	}
	return n
}

// runSession runs w once. A traced session passes a tracer, a registry and
// a debug logger through the search and simulation hooks; an untraced one
// passes only the logger, whose episode events give the decision count.
func runSession(w workload, seed int64, traced bool) *session {
	s := &session{traced: traced, failures: map[string]string{}}
	// Collect the previous phase's garbage and hand freed memory back to
	// the OS before each phase, so no phase pays for another's collection
	// and memory earlier phases left behind does not add to a later peak.
	debug.FreeOSMemory()
	rss := startRSSSampler()
	defer func() { s.peakRSS = rss.stopMB() }()
	start := time.Now()
	var tr *obs.Tracer
	var reg *obs.Registry
	if traced {
		tr = obs.NewTracer(traceCapacity)
		reg = obs.NewRegistry()
		// Deferred so that a session cut short still has its sample.
		defer func() { s.trace = analyze(tr, reg, s, w.threads) }()
	}
	var events bytes.Buffer
	logger := obs.NewLogger(&events, obs.LevelDebug)

	t0 := time.Now()
	recT, err := rec.Generate(w.n)
	if err != nil {
		s.fail("search", "rec.Generate: %v", err)
		return s
	}
	// Algorithm 1 from an empty design exhausts the wiring before it
	// connects every pair at these caps, so the greedy design completes
	// the low-wiring recursive layering instead, as internal/exp does.
	lite, err := rec.GenerateLite(w.n)
	if err != nil {
		s.fail("search", "rec.GenerateLite: %v", err)
		return s
	}
	env := rl.NewEnvFrom(lite, w.cap)
	rl.GreedyComplete(env)
	greedyT := env.Topology()
	s.designs = time.Since(t0)
	s.recHops, _ = recT.AverageHops()
	s.greedyHops, _ = greedyT.AverageHops()

	cfg := w.searchConfig(seed)
	cfg.Events, cfg.Metrics, cfg.Trace = logger, reg, tr
	t0 = time.Now()
	searcher, err := drl.New(cfg)
	s.searcher = time.Since(t0)
	if err != nil {
		s.fail("search", "drl.New: %v", err)
		return s
	}
	t0 = time.Now()
	res := searcher.Run()
	s.search = time.Since(t0)
	s.episodes, s.valid, s.treeSize, s.bestHops = res.Episodes, len(res.Valid), res.TreeSize, res.Best.AvgHops
	logger.Flush()
	eps, decisions, err := episodeEvents(events.Bytes())
	if err != nil {
		s.fail("search", "episode events: %v", err)
	}
	s.decisions = decisions
	s.checkSearch(w, res, eps)

	nets := map[string]*topo.Topology{netREC: recT, netGreedy: greedyT}
	if b := res.Best.Topo; b != nil {
		nets[netBest] = b
	}
	var shard *obs.TraceShard
	if traced {
		shard = tr.Shard("sim")
	}
	for i, p := range w.points {
		pr, ok := s.runPoint(w, p, nets, seed+17+int64(i)*7919, shard, reg, logger)
		if ok {
			s.points = append(s.points, pr)
		}
	}
	s.wall = time.Since(start)
	return s
}

// runPoint builds the network and traffic source for p, runs sim.Run on
// them and checks the result. Building them counts as set-up.
func (s *session) runPoint(w workload, p point, nets map[string]*topo.Topology, seed int64,
	shard *obs.TraceShard, reg *obs.Registry, logger *obs.Logger) (pointRun, bool) {
	op := p.name()
	t0 := time.Now()
	net, units, err := newNetwork(w.n, p, nets)
	if err != nil {
		s.fail(op, "%v", err)
		return pointRun{}, false
	}
	src := newSource(w.n, p, seed)
	s.designs += time.Since(t0)

	pr := pointRun{p: p, units: units}
	rc := p.runConfig()
	if shard != nil {
		rc.Trace, rc.Metrics, rc.Events = shard, reg, logger
		rc.OnInterval = func(st sim.IntervalStats) {
			if p.isMesh() {
				pr.activeSum += st.ActiveRouters
			} else {
				pr.activeSum += st.ActiveLoops
			}
			pr.activeSamples++
		}
	}
	debug.FreeOSMemory()
	t0 = time.Now()
	pr.res = sim.Run(net, src, rc)
	pr.wall = time.Since(t0)
	pr.cycles = net.Cycle()
	if shard != nil {
		pr.tickNS, pr.ticks = timeTicks(newSource(w.n, p, seed), p.warmup+p.measure)
	}
	s.outputs = append(s.outputs, output{op, canonicalSim(pr.res)})
	if err := checkSim(p, pr.res, pr.cycles); err != nil {
		s.fail(op, "%v", err)
	}
	return pr, true
}

// newNetwork returns p's network and the number of units its active set
// ranges over: loops for the ring, routers for the mesh.
func newNetwork(n int, p point, nets map[string]*topo.Topology) (sim.Network, int, error) {
	if p.isMesh() {
		return sim.NewMesh(n, n, sim.MeshN(2)), n * n, nil
	}
	t := nets[p.net]
	if t == nil || !t.FullyConnected() {
		return nil, 0, fmt.Errorf("no fully connected %s design to simulate", p.net)
	}
	return sim.NewRing(t, sim.DefaultRingConfig()), t.NumLoops(), nil
}

func newSource(n int, p point, seed int64) sim.Source {
	bits := ringLinkBits
	if p.isMesh() {
		bits = meshLinkBits
	}
	if p.class == classApp {
		prof, err := traffic.ParsecProfile(appProfile)
		if err != nil {
			panic(err) // appProfile is a constant name of the built-in suite
		}
		return traffic.NewAppInjector(prof, n, n, bits, seed)
	}
	return traffic.NewInjector(n, n, p.pattern, p.rate(), bits, seed)
}

// timeTicks times src.Tick alone for the given number of cycles.
func timeTicks(src sim.Source, cycles int) (ns, ticks int64) {
	t0 := time.Now()
	for i := 0; i < cycles; i++ {
		src.Tick()
	}
	return int64(time.Since(t0)), int64(cycles)
}

// episodeEvent is the part of a drl episode event the benchmark reads.
type episodeEvent struct {
	Event string `json:"event"`
	Steps int    `json:"steps"`
}

// episodeEvents parses the logger's JSON lines and returns the number of
// episode events and the sum of their guided trajectory steps.
func episodeEvents(data []byte) (episodes, steps int, err error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var ev episodeEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return 0, 0, fmt.Errorf("decode event: %w", err)
		}
		if ev.Event == obs.EventEpisode {
			episodes++
			steps += ev.Steps
		}
	}
	return episodes, steps, sc.Err()
}
