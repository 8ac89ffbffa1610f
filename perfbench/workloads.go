package main

import (
	"fmt"
	"strings"

	"routerless/internal/drl"
	"routerless/internal/sim"
	"routerless/internal/traffic"
)

// defaultSeed is the seed whose outputs reference.json pins.
const defaultSeed = 1

// Link widths the paper's comparison uses: 128-bit routerless loops and
// 256-bit mesh links (the same split internal/exp uses).
const (
	ringLinkBits = 128
	meshLinkBits = 256
)

// Injection rates in flits/node/cycle. The low rate leaves most loops and
// routers idle, so sparse stepping visits few of them; the high rates sit
// just below where Mesh-2 saturates for each pattern. The grid is fixed,
// with no stop at saturation, so the work done never depends on results.
const lowRate = 0.02

var highRate = map[traffic.Pattern]float64{
	traffic.UniformRandom: 0.25,
	traffic.Transpose:     0.08,
}

// appProfile is the PARSEC profile run on the ring: the heaviest one.
const appProfile = "fluidanimate"

// Network kinds a point can run on.
const (
	netBest   = "best"   // the search's best design, on the ring model
	netREC    = "rec"    // rec.Generate
	netGreedy = "greedy" // rl.GreedyComplete on the low-wiring layering
	netMesh   = "mesh2"  // Mesh-2
)

// Point classes, which key the per-layer ns-per-cycle metrics.
const (
	classLow  = "low"
	classHigh = "high"
	classApp  = "app"
)

// point is one cycle-accurate simulation run.
type point struct {
	net     string
	pattern traffic.Pattern
	class   string
	// warmup and measure size the run; the drain bound is twice measure.
	warmup, measure int
}

func (p point) isMesh() bool { return p.net == netMesh }

func (p point) rate() float64 {
	switch p.class {
	case classLow:
		return lowRate
	case classHigh:
		return highRate[p.pattern]
	}
	return 0 // app points take their rate from the profile
}

func (p point) name() string {
	tr := p.pattern.String()
	if p.class == classApp {
		tr = appProfile
	}
	return fmt.Sprintf("%s/%s/%s", p.net, tr, p.class)
}

func (p point) runConfig() sim.RunConfig {
	return sim.RunConfig{WarmupCycles: p.warmup, MeasureCycles: p.measure, DrainCycles: 2 * p.measure}
}

// workload is one benchmark input: a search, then simulation points. Every
// workload has both phases so that every end-to-end metric is defined on
// every workload; which phase dominates the host time differs.
type workload struct {
	name string
	// n and cap are the NoC side and overlap cap of the search and of the
	// REC/greedy designs.
	n, cap int
	// threads, episodes and dnn are the only drl.DefaultConfig fields the
	// search changes, besides the seed.
	threads, episodes int
	dnn               bool
	points            []point
	// paperHops is the paper's DRL average hop count at this size and cap
	// (Table 3), printed beside best_hops.
	paperHops float64
}

func (w workload) searchConfig(seed int64) drl.Config {
	cfg := drl.DefaultConfig(w.n, w.cap)
	cfg.Episodes = w.episodes
	cfg.Threads = w.threads
	cfg.UseDNN = w.dnn
	cfg.Seed = seed
	return cfg
}

// deterministic reports whether same-seed runs repeat bit for bit; only
// single-threaded searches do.
func (w workload) deterministic() bool { return w.threads == 1 }

// bestPoints scores a search's best design under uniform traffic at the low
// and high rate, as the paper scores designs by simulation.
func bestPoints(warmup, measure int) []point {
	return []point{
		{net: netBest, pattern: traffic.UniformRandom, class: classLow, warmup: warmup, measure: measure},
		{net: netBest, pattern: traffic.UniformRandom, class: classHigh, warmup: warmup, measure: measure},
	}
}

// sweepPoints is the Figure 10 style sweep: REC, the greedy design and
// Mesh-2 under uniform and transpose traffic at both rates, plus one PARSEC
// profile on the REC ring. Mesh cycles cost several times ring cycles, so
// mesh points run shorter windows to split host time about evenly.
func sweepPoints() []point {
	var ps []point
	for _, net := range []string{netREC, netGreedy, netMesh} {
		warmup, measure := 2000, 12000
		if net == netMesh {
			warmup, measure = 1200, 6000
		}
		for _, pat := range []traffic.Pattern{traffic.UniformRandom, traffic.Transpose} {
			for _, class := range []string{classLow, classHigh} {
				ps = append(ps, point{net: net, pattern: pat, class: class, warmup: warmup, measure: measure})
			}
		}
	}
	return append(ps, point{net: netREC, class: classApp, warmup: 2000, measure: 12000})
}

var workloads = []workload{
	{
		name: "search-8x8",
		n:    8, cap: 14, threads: 1, episodes: 16, dnn: true,
		points:    bestPoints(1000, 8000),
		paperHops: 6.22,
	},
	{
		name: "search-8x8-t2",
		n:    8, cap: 14, threads: 2, episodes: 32, dnn: true,
		points:    bestPoints(1000, 8000),
		paperHops: 6.22,
	},
	{
		// Only about one no-DNN episode in seven ends fully connected at
		// cap 18; 96 episodes make a search without a design vanishingly
		// rare.
		name: "search-nodnn-10x10",
		n:    10, cap: 18, threads: 1, episodes: 96, dnn: false,
		points:    bestPoints(1000, 8000),
		paperHops: 7.94,
	},
	{
		// The brief search runs at Table 4's loosest 10x10 cap, where
		// nearly every episode ends fully connected, so it always has a
		// design and stays a small share of the host time.
		name: "sim-sweep",
		n:    10, cap: 24, threads: 1, episodes: 16, dnn: false,
		points:    sweepPoints(),
		paperHops: 7.55,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}
