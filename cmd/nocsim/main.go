// Command nocsim runs the cycle-accurate simulator on a topology produced
// by nocgen (routerless) or on a mesh baseline, sweeping injection rates
// under a synthetic pattern or replaying a PARSEC-like application model.
//
// Usage:
//
//	nocsim -topo design.json -pattern uniform_random -rates 0.01,0.05,0.1
//	nocsim -mesh 8 -delay 2 -pattern transpose -rates 0.02,0.04
//	nocsim -topo design.json -app fluidanimate
//	nocsim -mesh 8 -metrics out.json -events run.jsonl -debug-addr :6060
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"

	"routerless/internal/exp"
	"routerless/internal/obs"
	"routerless/internal/sim"
	"routerless/internal/stats"
	"routerless/internal/topo"
	"routerless/internal/traffic"
	"routerless/internal/viz"
)

func main() {
	topoPath := flag.String("topo", "", "routerless topology JSON (from nocgen)")
	meshN := flag.Int("mesh", 0, "simulate an NxN mesh instead of a routerless topology")
	delay := flag.Int("delay", 2, "mesh router pipeline delay (0|1|2)")
	pattern := flag.String("pattern", "uniform_random", "synthetic traffic pattern")
	app := flag.String("app", "", "PARSEC-like application model (overrides -pattern)")
	rates := flag.String("rates", "0.005,0.02,0.05,0.1", "comma-separated injection rates (flits/node/cycle)")
	warmup := flag.Int("warmup", 2000, "warm-up cycles")
	measure := flag.Int("measure", 10000, "measured cycles")
	seed := flag.Int64("seed", 1, "random seed")
	csvPath := flag.String("csv", "", "also write the sweep as CSV to this path")
	metricsPath := flag.String("metrics", "", "write a metrics snapshot as JSON to this path at exit")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof/ on this address while running")
	eventsPath := flag.String("events", "", "write structured JSONL run events to this path")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON file of the run (load in Perfetto) to this path")
	manifestPath := flag.String("manifest", "", "append a JSONL run-provenance manifest to this path")
	progress := flag.Int("progress", 0, "print a progress line to stderr every N simulated cycles (0 = off)")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "sweep points simulated in parallel (1 = sequential; output is identical either way)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the simulation to this file")
	mutexProfile := flag.String("mutexprofile", "", "write a mutex-contention pprof profile of the simulation to this file")
	blockProfile := flag.String("blockprofile", "", "write a goroutine-blocking pprof profile of the simulation to this file")
	flag.Parse()
	// Nonsense sizes would panic inside a sweep worker or print a sweep of
	// zeros; reject them the way flag rejects a malformed value.
	switch {
	case *meshN < 0 || *meshN == 1:
		usageError("-mesh must be 0 (off) or at least 2, got %d", *meshN)
	case *delay < 0:
		usageError("-delay must be non-negative, got %d", *delay)
	case *warmup < 0:
		usageError("-warmup must be non-negative, got %d", *warmup)
	case *measure < 1:
		usageError("-measure must be positive, got %d", *measure)
	}
	var rateList []float64
	if *app == "" {
		for _, rs := range strings.Split(*rates, ",") {
			r, err := strconv.ParseFloat(strings.TrimSpace(rs), 64)
			if err != nil || !(r >= 0) || math.IsInf(r, 0) {
				usageError("-rates needs non-negative numbers, got %q", rs)
			}
			rateList = append(rateList, r)
		}
	}

	var reg *obs.Registry
	if *metricsPath != "" || *debugAddr != "" || *manifestPath != "" {
		reg = obs.NewRegistry()
	}
	var events *obs.Logger
	if *eventsPath != "" {
		f, err := os.Create(*eventsPath)
		if err != nil {
			fatal(err)
		}
		events = obs.NewLogger(f, obs.LevelDebug)
		// Flushes buffered events and closes the file on normal exit;
		// fatal() paths lose at most buffered debug events.
		defer events.Close()
	}
	var tracer *obs.Tracer
	if *tracePath != "" || *debugAddr != "" {
		tracer = obs.NewTracer(1 << 16)
	}
	if *debugAddr != "" {
		d, err := obs.StartDebug(*debugAddr, reg, tracer)
		if err != nil {
			fatal(err)
		}
		defer d.Close()
		fmt.Fprintf(os.Stderr, "nocsim: debug endpoint on http://%s\n", d.Addr)
	}
	var manifest *obs.Manifest
	if *manifestPath != "" {
		manifest = obs.NewManifest("nocsim")
		manifest.Seed = *seed
		manifest.Set("topo", *topoPath)
		manifest.Set("mesh", *meshN)
		manifest.Set("pattern", *pattern)
		manifest.Set("app", *app)
		manifest.Set("rates", *rates)
		manifest.Set("warmup", *warmup)
		manifest.Set("measure", *measure)
	}
	// finishRun writes the trace and manifest once simulation is done (the
	// trace only after all sweep workers have quiesced).
	finishRun := func() {
		if *tracePath != "" {
			f, err := os.Create(*tracePath)
			if err != nil {
				fatal(err)
			}
			err = tracer.WriteTrace(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "nocsim: trace written to %s\n", *tracePath)
		}
		if manifest != nil {
			manifest.Finish(reg)
			if err := manifest.AppendFile(*manifestPath); err != nil {
				fatal(err)
			}
		}
	}

	var mk func() sim.Network
	var rows, cols, linkBits int
	switch {
	case *meshN > 0:
		rows, cols, linkBits = *meshN, *meshN, 256
		mk = func() sim.Network {
			return sim.NewMesh(rows, cols, sim.MeshN(*delay))
		}
	case *topoPath != "":
		data, err := os.ReadFile(*topoPath)
		if err != nil {
			fatal(err)
		}
		var t topo.Topology
		if err := json.Unmarshal(data, &t); err != nil {
			fatal(err)
		}
		if !t.FullyConnected() {
			fatal(fmt.Errorf("topology %s is not fully connected", *topoPath))
		}
		rows, cols, linkBits = t.Rows(), t.Cols(), 128
		mk = func() sim.Network {
			return sim.NewRing(&t, sim.DefaultRingConfig())
		}
	default:
		fatal(fmt.Errorf("need -topo or -mesh"))
	}

	cfg := sim.RunConfig{
		WarmupCycles: *warmup, MeasureCycles: *measure, DrainCycles: 2 * *measure,
		Metrics: reg, Events: events,
	}
	// progressFn builds a per-run progress callback; each parallel sweep
	// point gets its own (the prefix identifies whose line it is).
	progressFn := func(prefix string) func(sim.IntervalStats) {
		if *progress <= 0 {
			return nil
		}
		return func(s sim.IntervalStats) {
			// act is the number of loops (ring) or routers (mesh)
			// carrying traffic — how busy the run is.
			act := s.ActiveLoops
			if act < 0 {
				act = s.ActiveRouters
			}
			fmt.Fprintf(os.Stderr, "nocsim: %s%s cycle=%d inflight=%d thr=%.4f buf=%d act=%d\n",
				prefix, s.Phase, s.Cycle, s.InFlight, s.Throughput, s.BufferOccupancy, act)
		}
	}
	if *progress > 0 {
		cfg.ProbeEvery = *progress
	}

	writeMetrics := func() {
		if *metricsPath == "" {
			return
		}
		f, err := os.Create(*metricsPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := reg.WriteJSON(f); err != nil {
			fatal(err)
		}
		fmt.Printf("metrics written to %s\n", *metricsPath)
	}

	// The profile brackets only the simulation itself (both run paths), not
	// flag parsing or report printing; fatal exits via os.Exit, so the stop
	// closure is also invoked before each post-profile section.
	stopProfile := func() {}
	if *cpuProfile != "" {
		stop, err := obs.StartCPUProfile(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		stopProfile = stop
	}
	// Contention profiles share the same bracket as the CPU profile; the
	// combined stop keeps both run paths below to a single call.
	if *mutexProfile != "" || *blockProfile != "" {
		stopContention, err := obs.StartContentionProfiles(*mutexProfile, *blockProfile)
		if err != nil {
			fatal(err)
		}
		stopCPU := stopProfile
		stopProfile = func() {
			stopCPU()
			if err := stopContention(); err != nil {
				fatal(err)
			}
		}
	}

	if *app != "" {
		profile, err := traffic.ParsecProfile(*app)
		if err != nil {
			fatal(err)
		}
		src := traffic.NewAppInjector(profile, rows, cols, linkBits, *seed)
		cfg.OnInterval = progressFn("")
		cfg.Trace = tracer.Shard("sim.main")
		res := sim.Run(mk(), src, cfg)
		stopProfile()
		fmt.Printf("app=%s %v\n", profile.Name, res)
		finishRun()
		writeMetrics()
		return
	}

	p, err := traffic.ParsePattern(*pattern)
	if err != nil {
		fatal(err)
	}
	// The sweep points are independent (each builds its own network and
	// injector with the same seed), so fan them across -j workers; results
	// land by rate index and are printed/logged in order afterwards, so
	// stdout and the events JSONL are identical at any -j.
	results := exp.RunParallelTraced(len(rateList), *jobs, reg, tracer, func(i int, sh *obs.TraceShard) sim.Result {
		r := rateList[i]
		c := cfg
		c.OnInterval = progressFn(fmt.Sprintf("rate=%.4f ", r))
		c.Trace = sh
		src := traffic.NewInjector(rows, cols, p, r, linkBits, *seed)
		return sim.Run(mk(), src, c)
	})
	stopProfile()
	finishRun()
	var points []sim.SweepPoint
	fmt.Printf("%-10s %-10s %-12s %-10s %s\n", "rate", "latency", "throughput", "hops", "flags")
	for i, res := range results {
		r := rateList[i]
		points = append(points, sim.SweepPoint{Rate: r, Result: res})
		events.Info(obs.EventSweepPoint, map[string]any{
			"rate":        r,
			"avg_latency": res.AvgLatency,
			"p50_latency": res.LatencyP50,
			"p95_latency": res.LatencyP95,
			"p99_latency": res.LatencyP99,
			"throughput":  res.Throughput,
			"avg_hops":    res.AvgHops,
			"saturated":   res.Saturated,
		})
		flagStr := ""
		if res.Saturated {
			flagStr = "SATURATED"
		}
		fmt.Printf("%-10.4f %-10.2f %-12.4f %-10.2f %s\n",
			r, res.AvgLatency, res.Throughput, res.AvgHops, flagStr)
	}
	curve := sim.Curve(points)
	fmt.Printf("zero-load latency: %.2f cycles; saturation throughput: %.4f flits/node/cycle\n",
		stats.ZeroLoadLatency(curve), stats.SaturationThroughput(curve, 3))

	if *csvPath != "" {
		var rs, ls, ts []float64
		for _, p := range curve {
			rs = append(rs, p.InjectionRate)
			ls = append(ls, p.Latency)
			ts = append(ts, p.Throughput)
		}
		f, err := os.Create(*csvPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := viz.CurveCSV(f, rs, ls, ts); err != nil {
			fatal(err)
		}
		fmt.Printf("sweep written to %s\n", *csvPath)
	}
	writeMetrics()
}

// usageError reports a bad flag value with the usage text and exits with
// status 2, as flag does for a malformed one.
func usageError(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "nocsim: "+format+"\n", a...)
	flag.Usage()
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nocsim:", err)
	os.Exit(1)
}
