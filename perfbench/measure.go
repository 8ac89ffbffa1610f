package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"routerless/internal/topo"
)

// minSessions is the fewest sessions of each kind a run makes, so that
// every reported median has at least three samples.
const minSessions = 3

// inputsPerRun is the number of distinct inputs a run cycles through. A
// search's speed and result depend on its seed, so each run measures over
// several inputs derived from --seed rather than over repeats of one.
const inputsPerRun = 16

// inputSeed derives the seed of a run's input'th input.
func inputSeed(seed int64, input int) int64 { return seed*1_000_003 + int64(input) }

// Paper reference values printed beside the modelled results (Figure 10,
// uniform traffic, zero-load latency in cycles on 10x10).
const (
	paperRECZeroLoad   = 11.67
	paperMesh2ZeroLoad = 26.85
)

// runResult is everything one benchmark run measured.
type runResult struct {
	w      workload
	seed   int64
	traced bool
	// tables is the one cold topo.Tables build of the process.
	tables time.Duration
	// speed is the host's speed relative to the reference host while the
	// untraced sessions ran (see calibrator); 1 in a traced run.
	speed     float64
	untraced  []*session
	tracedS   []*session
	attempted int
	failed    int
	failures  []string
	host      host
	// peakRSS is the mean over untraced sessions of each one's peak
	// resident set size, in MiB. A session's peak follows its input (the
	// search tree's size above all), so a mean over the run's inputs is
	// steadier than the largest one.
	peakRSS float64
	metrics map[string]metric
}

// measure runs sessions of w until budget has passed and at least
// minSessions of each needed kind have run. With traced set, untraced and
// traced sessions alternate.
func measure(w workload, seed int64, budget time.Duration, traced bool, ref reference) *runResult {
	r := &runResult{w: w, seed: seed, traced: traced}
	cal := newCalibrator(w.threads)
	total0, steal0, statOK := cpuTimes()
	t0 := time.Now()
	topo.Tables(w.n, w.n)
	r.tables = time.Since(t0)

	start := time.Now()
	first := map[int][]output{}
	for i := 0; ; i++ {
		// A traced run pairs each untraced session with a traced one on
		// the same input, so the pair measures the tracing overhead.
		input, withTrace := i, false
		if traced {
			input, withTrace = i/2, i%2 == 1
		}
		input %= inputsPerRun
		s := runSession(w, inputSeed(seed, input), withTrace)
		s.input = input
		if w.deterministic() {
			// Sessions on the same input, traced or not, must repeat bit
			// for bit.
			if prev, ok := first[input]; ok {
				s.checkRepeat(prev)
			} else {
				first[input] = s.outputs
			}
			if seed == defaultSeed {
				s.checkReference(ref[w.name], input)
			}
		}
		r.add(s)
		if !s.traced {
			cal.pace(s.wall)
		}
		enough := len(r.untraced) >= minSessions && (!traced || len(r.tracedS) >= minSessions)
		if enough && time.Since(start) >= budget {
			break
		}
	}

	steal := 0.0
	if total1, steal1, ok := cpuTimes(); ok && statOK {
		steal = ratio(float64(steal1-steal0), float64(total1-total0))
	}
	r.host = hostInfo(steal)
	r.speed = cal.speed()
	r.peakRSS = meanOf(r.untraced, func(s *session) float64 { return s.peakRSS })
	if traced {
		r.metrics = r.perLayerMetrics()
	} else {
		r.metrics = r.endToEndMetrics()
	}
	return r
}

func (r *runResult) add(s *session) {
	if s.traced {
		r.tracedS = append(r.tracedS, s)
	} else {
		r.untraced = append(r.untraced, s)
	}
	// One operation per search and per simulated point; an operation with
	// any failed check counts once.
	r.attempted += 1 + len(r.w.points)
	r.failed += len(s.failures)
	for _, op := range sortedKeys(s.failures) {
		r.failures = append(r.failures, fmt.Sprintf("%s: %s", op, s.failures[op]))
	}
}

// checkRepeat compares the session's outputs with those of the first
// session on the same input.
func (s *session) checkRepeat(first []output) {
	want := map[string]string{}
	for _, o := range first {
		want[o.name] = o.value
	}
	for _, o := range s.outputs {
		if v, ok := want[o.name]; ok && v != o.value {
			s.fail(o.name, "same-input session differs:\n  got   %s\n  first %s", o.value, v)
		}
	}
}

// medianOf is the median over sessions of f.
func medianOf(ss []*session, f func(*session) float64) float64 {
	xs := make([]float64, 0, len(ss))
	for _, s := range ss {
		xs = append(xs, f(s))
	}
	return median(xs)
}

// meanOf is the mean over sessions of f.
func meanOf(ss []*session, f func(*session) float64) float64 {
	xs := make([]float64, 0, len(ss))
	for _, s := range ss {
		xs = append(xs, f(s))
	}
	return mean(xs)
}

func setupSecs(s *session) float64 { return (s.designs + s.searcher).Seconds() }

// rate is the work of all sessions over their summed host time: throughput
// over the run's inputs, so an input with longer episodes weighs by the
// time it took rather than counting as one sample.
func rate(ss []*session, work func(*session) int, took func(*session) time.Duration) float64 {
	var n int
	var d time.Duration
	for _, s := range ss {
		n += work(s)
		d += took(s)
	}
	return ratio(float64(n), d.Seconds())
}

func searchTime(s *session) time.Duration { return s.search }

func simTime(s *session) time.Duration { return s.simWall() }

// endToEndMetrics scales every host time to the reference host's speed:
// rates are divided by the run's speed and set-up times multiplied by it.
func (r *runResult) endToEndMetrics() map[string]metric {
	ss := r.untraced
	return map[string]metric{
		"decisions_per_s":  {rate(ss, func(s *session) int { return s.decisions }, searchTime) / r.speed, "1/s"},
		"episodes_per_s":   {rate(ss, func(s *session) int { return s.episodes }, searchTime) / r.speed, "1/s"},
		"best_hops":        {medianOf(ss, func(s *session) float64 { return s.bestHops }), "hops"},
		"sim_cycles_per_s": {rate(ss, (*session).simCycles, simTime) / r.speed, "1/s"},
		"setup_s":          {(r.tables.Seconds() + medianOf(ss, setupSecs)) * r.speed, "s"},
		"peak_rss_mb":      {r.peakRSS, "MiB"},
	}
}

// nsPerCycle is the host time per simulated cycle of a session's points of
// one network model and class; 0 when it ran none.
func nsPerCycle(s *session, mesh bool, class string) float64 {
	var ns, cycles float64
	for _, p := range s.points {
		if p.p.isMesh() == mesh && p.p.class == class {
			ns += float64(p.wall.Nanoseconds())
			cycles += float64(p.cycles)
		}
	}
	return ratio(ns, cycles)
}

// perLayerMetrics takes span-derived metrics from the traced sessions and
// host timings (ns per cycle, set-up parts) from the untraced ones.
func (r *runResult) perLayerMetrics() map[string]metric {
	m := map[string]metric{}
	for _, k := range sortedKeys(r.tracedS[0].trace.metrics) {
		m[k] = metric{medianOf(r.tracedS, func(s *session) float64 { return s.trace.metrics[k] }), perLayerUnit(k)}
	}
	for _, mesh := range []bool{false, true} {
		for _, class := range []string{classLow, classHigh, classApp} {
			if mesh && class == classApp {
				continue
			}
			model := "ring"
			if mesh {
				model = "mesh"
			}
			m["sim."+model+".ns_per_cycle."+class] = metric{
				medianOf(r.untraced, func(s *session) float64 { return nsPerCycle(s, mesh, class) }), "ns"}
		}
	}
	m["setup.tables_s"] = metric{r.tables.Seconds(), "s"}
	m["setup.designs_s"] = metric{medianOf(r.untraced, func(s *session) float64 { return s.designs.Seconds() }), "s"}
	m["setup.searcher_s"] = metric{medianOf(r.untraced, func(s *session) float64 { return s.searcher.Seconds() }), "s"}
	wall := func(s *session) float64 { return s.wall.Seconds() }
	m["trace.overhead_frac"] = metric{medianOf(r.tracedS, wall)/medianOf(r.untraced, wall) - 1, "fraction"}
	return m
}

func perLayerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_ms"), strings.HasSuffix(name, ".ms_per_decision"):
		return "ms"
	case strings.HasSuffix(name, "_frac"):
		return "fraction"
	case strings.HasSuffix(name, "_ns"):
		return "ns"
	}
	return "count"
}

// report prints the human-readable part of the output: the host, each
// session, the checks, accuracy context, the per-layer table of a traced
// run, and one JSON record of the whole run.
func (r *runResult) report(w io.Writer) {
	fmt.Fprintf(w, "perfbench workload=%s seed=%d trace=%t\n", r.w.name, r.seed, r.traced)
	hj, _ := json.Marshal(r.host)
	fmt.Fprintf(w, "host %s\n", hj)
	fmt.Fprintf(w, "setup: tables %.4fs (once)\n", r.tables.Seconds())
	if !r.traced {
		fmt.Fprintf(w, "host speed %.4f of the reference host (calibration kernel, %.0f%% of session time); end-to-end times are scaled by it\n",
			r.speed, 100*calibShare)
	}
	for i, s := range append(append([]*session(nil), r.untraced...), r.tracedS...) {
		kind := "untraced"
		if s.traced {
			kind = "traced"
		}
		fmt.Fprintf(w, "session %d %-8s input %d setup %.4fs search %.6fs (%d episodes, %d valid, %d decisions) sim %.6fs (%d cycles) wall %.3fs rss %.1fMiB digest %s\n",
			i, kind, s.input, setupSecs(s), s.search.Seconds(), s.episodes, s.valid, s.decisions,
			s.simWall().Seconds(), s.simCycles(), s.wall.Seconds(), s.peakRSS, digest(s.outputs))
	}
	fmt.Fprintf(w, "checks: %d operations, %d failed\n", r.attempted, r.failed)
	for _, f := range r.failures {
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
	r.accuracy(w)
	if r.traced {
		last := r.tracedS[len(r.tracedS)-1]
		fmt.Fprintln(w, "per-layer self time, last traced session:")
		writeTable(w, last.trace.attr, r.metrics["trace.overhead_frac"].Value)
	}
	if r.traced {
		for _, pl := range perLayer {
			m := r.metrics[pl.name]
			fmt.Fprintf(w, "  %-34s %16.6f %-8s should move: %s\n", pl.name, m.Value, m.Unit, pl.moves)
		}
	} else {
		for _, k := range sortedKeys(r.metrics) {
			fmt.Fprintf(w, "  %-34s %16.6f %s\n", k, r.metrics[k].Value, r.metrics[k].Unit)
		}
	}
	rec, _ := json.Marshal(map[string]any{
		"workload": r.w.name, "seed": r.seed, "trace": r.traced, "host": r.host, "host_speed": r.speed,
		"sessions": len(r.untraced) + len(r.tracedS), "failures": r.failures, "metrics": r.metrics,
	})
	fmt.Fprintf(w, "result %s\n", rec)
}

// accuracy prints the modelled results beside the paper's; not gated.
func (r *runResult) accuracy(w io.Writer) {
	s := r.untraced[0]
	fmt.Fprintf(w, "accuracy (not gated): best_hops %.4f vs paper DRL %.2f at %dx%d cap %d; REC %.4f, greedy %.4f\n",
		s.bestHops, r.w.paperHops, r.w.n, r.w.n, r.w.cap, s.recHops, s.greedyHops)
	for _, p := range s.points {
		if p.p.class != classLow || p.p.pattern.String() != "uniform_random" {
			continue
		}
		switch p.p.net {
		case netREC:
			fmt.Fprintf(w, "accuracy (not gated): REC low-load latency %.2f cycles vs Figure 10 zero-load %.2f\n", p.res.AvgLatency, paperRECZeroLoad)
		case netMesh:
			fmt.Fprintf(w, "accuracy (not gated): Mesh-2 low-load latency %.2f cycles vs Figure 10 zero-load %.2f\n", p.res.AvgLatency, paperMesh2ZeroLoad)
		}
	}
}
