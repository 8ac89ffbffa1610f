package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"routerless/internal/obs"
)

// spanLayer names the repository module whose work each span kind times.
// Kinds on a learner track nest under drl.episode; kinds on the sim track
// nest under sim.run.
var spanLayer = map[string]string{
	"drl.episode":          "rl env + topo + greedy completion (episode self)",
	"drl.train":            "rl A2C + nn/tensor train + drl param exchange",
	"nn.forward":           "nn/tensor inference",
	"mcts.select":          "mcts",
	"mcts.expand":          "mcts + rl legal actions",
	"mcts.backup":          "mcts",
	"infer.submit":         "infer (learner side)",
	"infer.queue_wait":     "infer broker",
	"infer.batch_assemble": "infer broker",
	"infer.forward_batch":  "infer broker",
	"sim.run":              "sim result reduction",
	"sim.warmup":           "sim + traffic, warmup",
	"sim.measure":          "sim + traffic, measure",
	"sim.drain":            "sim, drain",
}

// perLayer lists the per-layer metrics in BENCHMARK.json order, each with
// the end-to-end metric and workload a change to its layer should move.
var perLayer = []struct{ name, moves string }{
	{"drl.train.self_s", "decisions_per_s on search-8x8 and -t2; nothing on search-nodnn-10x10 or sim-sweep"},
	{"drl.train.ms_per_decision", "decisions_per_s on search-8x8 and -t2; nothing on search-nodnn-10x10 or sim-sweep"},
	{"nn.forward.self_s", "decisions_per_s on search-8x8 and -t2; nothing on search-nodnn-10x10 or sim-sweep"},
	{"nn.forward.count", "decisions_per_s on search-8x8 and -t2; nothing on search-nodnn-10x10 or sim-sweep"},
	{"drl.episode.self_s", "episodes_per_s on search-nodnn-10x10; little on search-8x8"},
	{"drl.episode.p50_ms", "episodes_per_s on search-nodnn-10x10; little on search-8x8"},
	{"drl.episode.p90_ms", "episodes_per_s on search-nodnn-10x10; little on search-8x8"},
	{"mcts.select.self_s", "episodes_per_s on search-nodnn-10x10"},
	{"mcts.expand.self_s", "episodes_per_s on search-nodnn-10x10"},
	{"mcts.backup.self_s", "episodes_per_s on search-nodnn-10x10"},
	{"mcts.hit_frac", "episodes_per_s on search-nodnn-10x10"},
	{"mcts.tree_size", "episodes_per_s on search-nodnn-10x10"},
	{"mcts.lock_contended_frac", "decisions_per_s on search-8x8-t2 only"},
	{"drl.server_lock_contended_frac", "decisions_per_s on search-8x8-t2 only"},
	{"drl.valid_frac", "best_hops on every workload"},
	{"infer.forward_batch.self_s", "nothing while the broker is off by default"},
	{"infer.cache_hit_frac", "nothing while the broker is off by default"},
	{"search.unattributed_s", "none; shows time no span covers"},
	{"sim.ring.ns_per_cycle.low", "sim_cycles_per_s on every workload, most on sim-sweep; no other search metric"},
	{"sim.ring.ns_per_cycle.high", "sim_cycles_per_s on every workload, most on sim-sweep; no other search metric"},
	{"sim.ring.ns_per_cycle.app", "sim_cycles_per_s on sim-sweep; no search metric"},
	{"sim.mesh.ns_per_cycle.low", "sim_cycles_per_s on sim-sweep; no search metric"},
	{"sim.mesh.ns_per_cycle.high", "sim_cycles_per_s on sim-sweep; no search metric"},
	{"sim.warmup.self_s", "sim_cycles_per_s on sim-sweep"},
	{"sim.measure.self_s", "sim_cycles_per_s on sim-sweep"},
	{"sim.drain.self_s", "sim_cycles_per_s on sim-sweep"},
	{"sim.drain.cycle_frac", "sim_cycles_per_s on sim-sweep"},
	{"sim.active_loop_frac", "sim_cycles_per_s on sim-sweep, at the low rate"},
	{"sim.active_router_frac", "sim_cycles_per_s on sim-sweep, at the low rate"},
	{"traffic.tick_ns", "sim_cycles_per_s on sim-sweep"},
	{"setup.tables_s", "setup_s on every workload"},
	{"setup.designs_s", "setup_s on every workload"},
	{"setup.searcher_s", "setup_s on every workload"},
	{"trace.overhead_frac", "none; a sanity check on the traced numbers"},
}

// learnerKinds are the span kinds recorded on learner tracks.
var learnerKinds = []string{"drl.episode", "drl.train", "nn.forward",
	"mcts.select", "mcts.expand", "mcts.backup", "infer.submit"}

// simKinds are the span kinds recorded on the sim track.
var simKinds = []string{"sim.run", "sim.warmup", "sim.measure", "sim.drain"}

// layerRow is one row of the per-layer table.
type layerRow struct {
	span, layer string
	count       int64
	selfS       float64
}

// attribution splits a traced session's host time across span kinds.
// Learner-track time is the search's wall time on each of its threads;
// sim-track time is the host time of the sim.Run calls. The part of each
// that no span covers is unattributed.
type attribution struct {
	rows                      []layerRow
	searchTrackS, simTrackS   float64
	searchUnattrS, simUnattrS float64
}

func (a attribution) totalS() float64 { return a.searchTrackS + a.simTrackS }

func (a attribution) unattributedS() float64 { return a.searchUnattrS + a.simUnattrS }

func attribute(stats []obs.SpanStat, threads int, simRuns time.Duration) attribution {
	byKind := map[string]obs.SpanStat{}
	for _, st := range stats {
		byKind[st.Kind] = st
	}
	a := attribution{
		searchTrackS: float64(threads) * secs(byKind["drl.run"].TotalNS),
		simTrackS:    simRuns.Seconds(),
	}
	a.searchUnattrS, a.simUnattrS = a.searchTrackS, a.simTrackS
	for _, k := range learnerKinds {
		a.searchUnattrS -= secs(byKind[k].SelfNS)
	}
	for _, k := range simKinds {
		a.simUnattrS -= secs(byKind[k].SelfNS)
	}
	for _, st := range stats {
		if st.Kind == "drl.run" {
			continue // the learner tracks' container, split by the rows
		}
		a.rows = append(a.rows, layerRow{st.Kind, spanLayer[st.Kind], st.Count, secs(st.SelfNS)})
	}
	return a
}

func secs(ns int64) float64 { return float64(ns) / 1e9 }

// traceSample is what one traced session measured, per layer.
type traceSample struct {
	attr    attribution
	metrics map[string]float64
}

// analyze reads a traced session's tracer, registry and interval samples
// into the per-layer metrics that come from tracing.
func analyze(tr *obs.Tracer, reg *obs.Registry, s *session, threads int) *traceSample {
	stats := tr.Aggregate()
	byKind := map[string]obs.SpanStat{}
	for _, st := range stats {
		byKind[st.Kind] = st
	}
	snap := reg.Snapshot()
	attr := attribute(stats, threads, s.simWall())
	m := map[string]float64{}
	self := func(kind string) float64 { return secs(byKind[kind].SelfNS) }

	m["drl.train.self_s"] = self("drl.train")
	m["drl.train.ms_per_decision"] = ratio(1e3*self("drl.train"), float64(s.decisions))
	m["nn.forward.self_s"] = self("nn.forward")
	m["nn.forward.count"] = float64(byKind["nn.forward"].Count)
	m["drl.episode.self_s"] = self("drl.episode")
	durs, err := spanDurations(tr, "drl.episode")
	if err != nil {
		s.fail("search", "%v", err)
	}
	m["drl.episode.p50_ms"] = 1e3 * quantile(durs, 0.50)
	m["drl.episode.p90_ms"] = 1e3 * quantile(durs, 0.90)
	m["mcts.select.self_s"] = self("mcts.select")
	m["mcts.expand.self_s"] = self("mcts.expand")
	m["mcts.backup.self_s"] = self("mcts.backup")
	sel, exp := float64(byKind["mcts.select"].Count), float64(byKind["mcts.expand"].Count)
	m["mcts.hit_frac"] = ratio(sel, sel+exp)
	m["mcts.tree_size"] = float64(s.treeSize)
	m["mcts.lock_contended_frac"] = ratio(snap.Gauges["mcts.lock_contended"], snap.Gauges["mcts.lock_acquires"])
	m["drl.server_lock_contended_frac"] = ratio(snap.Gauges["drl.server_lock_contended"], snap.Gauges["drl.server_lock_acquires"])
	m["drl.valid_frac"] = ratio(float64(s.valid), float64(s.episodes))
	m["infer.forward_batch.self_s"] = self("infer.forward_batch")
	hits, misses := float64(snap.Counters["infer.cache_hits"]), float64(snap.Counters["infer.cache_misses"])
	m["infer.cache_hit_frac"] = ratio(hits, hits+misses)
	m["search.unattributed_s"] = attr.searchUnattrS

	m["sim.warmup.self_s"] = self("sim.warmup")
	m["sim.measure.self_s"] = self("sim.measure")
	m["sim.drain.self_s"] = self("sim.drain")
	var drainCycles, allCycles, tickNS, ticks int64
	var loopShare, routerShare []float64
	for _, p := range s.points {
		drainCycles += int64(p.cycles - p.p.warmup - p.p.measure)
		allCycles += int64(p.cycles)
		tickNS += p.tickNS
		ticks += p.ticks
		if p.p.class == classLow && p.activeSamples > 0 {
			share := float64(p.activeSum) / float64(p.activeSamples) / float64(p.units)
			if p.p.isMesh() {
				routerShare = append(routerShare, share)
			} else {
				loopShare = append(loopShare, share)
			}
		}
	}
	m["sim.drain.cycle_frac"] = ratio(float64(drainCycles), float64(allCycles))
	m["sim.active_loop_frac"] = mean(loopShare)
	m["sim.active_router_frac"] = mean(routerShare)
	m["traffic.tick_ns"] = ratio(float64(tickNS), float64(ticks))
	return &traceSample{attr: attr, metrics: m}
}

// spanDurations returns the durations in seconds of every span of the kind
// still held in the tracer's rings, read from its exported trace.
func spanDurations(tr *obs.Tracer, kind string) ([]float64, error) {
	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf); err != nil {
		return nil, fmt.Errorf("export trace: %w", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"` // microseconds
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return nil, fmt.Errorf("decode trace: %w", err)
	}
	var out []float64
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Name == kind {
			out = append(out, ev.Dur/1e6)
		}
	}
	return out, nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (the layer did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// writeTable prints the per-layer self-time table of one traced session.
// Its rows and the closing unattributed row add up to the total.
func writeTable(w io.Writer, a attribution, overhead float64) {
	total := a.totalS()
	fmt.Fprintf(w, "total %.4fs: learner tracks %.4fs + sim track %.4fs\n", total, a.searchTrackS, a.simTrackS)
	fmt.Fprintf(w, "%-22s %-48s %9s %10s %7s\n", "span", "layer", "count", "self_s", "share")
	rows := append([]layerRow(nil), a.rows...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].selfS > rows[j].selfS })
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %-48s %9d %10.4f %6.1f%%\n", r.span, r.layer, r.count, r.selfS, 100*ratio(r.selfS, total))
	}
	fmt.Fprintf(w, "%-22s %-48s %9s %10.4f %6.1f%%\n", "unattributed", "outside any span (learner and sim tracks)", "",
		a.unattributedS(), 100*ratio(a.unattributedS(), total))
	fmt.Fprintf(w, "trace.overhead_frac %.4f (traced vs untraced session wall time)\n", overhead)
	fmt.Fprintln(w, strings.Repeat("-", 100))
}
