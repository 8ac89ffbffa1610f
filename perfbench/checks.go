package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"

	"routerless/internal/drl"
	"routerless/internal/sim"
	"routerless/internal/topo"
)

// checkSearch checks the search's invariants and records its output: the
// best design is fully connected within the cap, and its hop count is the
// one recomputed from the design's loops.
func (s *session) checkSearch(w workload, res *drl.Result, episodeEvents int) {
	const op = "search"
	if res.Episodes != w.episodes || episodeEvents != w.episodes {
		s.fail(op, "ran %d episodes with %d episode events, want %d", res.Episodes, episodeEvents, w.episodes)
	}
	if len(res.Valid) > res.Episodes {
		s.fail(op, "%d valid designs from %d episodes", len(res.Valid), res.Episodes)
	}
	best := res.Best.Topo
	if best == nil {
		s.fail(op, "no fully connected design found")
		s.outputs = append(s.outputs, output{op, canonicalSearch(res.Best.AvgHops, len(res.Valid), res.TreeSize, "")})
		return
	}
	rebuilt := topo.New(best.Rows(), best.Cols(), w.cap)
	for _, l := range best.Loops() {
		if err := rebuilt.AddLoop(l); err != nil {
			s.fail(op, "best design's loop %v does not rebuild: %v", l, err)
			return
		}
	}
	hops, unconnected := rebuilt.AverageHops()
	switch {
	case !rebuilt.FullyConnected() || unconnected != 0:
		s.fail(op, "best design leaves %d pairs unconnected", unconnected)
	case rebuilt.MaxOverlap() > w.cap:
		s.fail(op, "best design overlaps %d loops at a node, cap %d", rebuilt.MaxOverlap(), w.cap)
	// The search reports hops through rl.Env, which rescales the mean by
	// the pair count; that product and quotient may round the last bit.
	case math.Abs(hops-res.Best.AvgHops) > 1e-12*hops:
		s.fail(op, "best_hops %v, recomputed from the design %v", res.Best.AvgHops, hops)
	case res.Best.Loops != best.NumLoops():
		s.fail(op, "best design reports %d loops, has %d", res.Best.Loops, best.NumLoops())
	}
	sum := sha256.Sum256([]byte(best.Fingerprint()))
	s.outputs = append(s.outputs, output{op,
		canonicalSearch(res.Best.AvgHops, len(res.Valid), res.TreeSize, hex.EncodeToString(sum[:8]))})
}

func canonicalSearch(bestHops float64, valid, treeSize int, fingerprint string) string {
	return fmt.Sprintf("best_hops=%s valid=%d tree_size=%d design=%s", ff(bestHops), valid, treeSize, fingerprint)
}

// canonicalSim renders every sim.Result field exactly.
func canonicalSim(r sim.Result) string {
	return fmt.Sprintf("cycles=%d sent=%d done=%d flits=%d lat=%s hops=%s thr=%s util=%s p50=%s p95=%s p99=%s saturated=%t",
		r.Cycles, r.PacketsSent, r.PacketsDone, r.FlitsDone, ff(r.AvgLatency), ff(r.AvgHops),
		ff(r.Throughput), ff(r.LinkUtilization), ff(r.LatencyP50), ff(r.LatencyP95), ff(r.LatencyP99), r.Saturated)
}

// ff formats a float with the fewest digits that read back bit for bit.
func ff(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// checkSim checks invariants any simulation result must hold.
func checkSim(p point, r sim.Result, cycles int) error {
	switch {
	case r.Cycles != p.measure:
		return fmt.Errorf("measured %d cycles, want %d", r.Cycles, p.measure)
	case cycles < p.warmup+p.measure || cycles > p.warmup+3*p.measure:
		return fmt.Errorf("stepped %d cycles, outside warmup+measure..warmup+measure+drain", cycles)
	case r.PacketsSent == 0 || r.PacketsDone == 0:
		return fmt.Errorf("sent %d packets, delivered %d", r.PacketsSent, r.PacketsDone)
	case r.PacketsDone > r.PacketsSent:
		return fmt.Errorf("delivered %d of %d packets", r.PacketsDone, r.PacketsSent)
	case r.AvgHops < 1 || r.AvgLatency < r.AvgHops:
		return fmt.Errorf("latency %v below hop count %v", r.AvgLatency, r.AvgHops)
	case !(r.LatencyP50 <= r.LatencyP95 && r.LatencyP95 <= r.LatencyP99):
		return fmt.Errorf("latency percentiles out of order: %v %v %v", r.LatencyP50, r.LatencyP95, r.LatencyP99)
	case r.Throughput <= 0 || r.LinkUtilization <= 0:
		return fmt.Errorf("throughput %v, link utilization %v", r.Throughput, r.LinkUtilization)
	}
	if p.class == classLow {
		// Far below saturation every measured packet drains and the
		// network accepts what is offered (transpose sends nothing from
		// the diagonal, so it offers less than the nominal rate).
		if r.Saturated || r.PacketsDone != r.PacketsSent {
			return fmt.Errorf("low-rate point saturated: %d of %d delivered", r.PacketsDone, r.PacketsSent)
		}
		if r.Throughput > 1.25*lowRate || r.Throughput < 0.5*lowRate {
			return fmt.Errorf("accepted %v flits/node/cycle at offered %v", r.Throughput, lowRate)
		}
	}
	return nil
}

// digest hashes the operations' outputs in order: equal digests mean
// bit-equal outputs.
func digest(outs []output) string {
	h := sha256.New()
	for _, o := range outs {
		fmt.Fprintf(h, "%s\x00%s\x00", o.name, o.value)
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// reference holds, per deterministic workload, a hash of each operation's
// output on each of the default seed's inputs, keyed "input/operation".
type reference map[string]map[string]string

func refKey(input int, op string) string { return fmt.Sprintf("%d/%s", input, op) }

// outputHash is the reference form of one output: equal hashes mean
// bit-equal outputs.
func outputHash(value string) string {
	sum := sha256.Sum256([]byte(value))
	return hex.EncodeToString(sum[:8])
}

//go:embed reference.json
var referenceJSON []byte

func loadReference() (reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("decode reference.json: %w", err)
	}
	return ref, nil
}

// checkReference compares a default-seed session's outputs with the
// recorded ones for its input.
func (s *session) checkReference(want map[string]string, input int) {
	for _, o := range s.outputs {
		if ref, ok := want[refKey(input, o.name)]; !ok {
			s.fail(o.name, "no reference output recorded for input %d", input)
		} else if got := outputHash(o.value); got != ref {
			s.fail(o.name, "input %d output differs from reference: hash %s, want %s\n  got %s", input, got, ref, o.value)
		}
	}
}

// recordReference runs one untraced session of every deterministic
// workload on each input of the default seed and writes their outputs'
// hashes as the reference.
func recordReference(path string, log io.Writer) error {
	ref := reference{}
	for _, w := range workloads {
		if !w.deterministic() {
			continue
		}
		outs := map[string]string{}
		for input := 0; input < inputsPerRun; input++ {
			s := runSession(w, inputSeed(defaultSeed, input), false)
			if len(s.failures) > 0 {
				return fmt.Errorf("%s input %d: checks failed, not recording: %v", w.name, input, s.failures)
			}
			for _, o := range s.outputs {
				outs[refKey(input, o.name)] = outputHash(o.value)
			}
			fmt.Fprintf(log, "%s input %d: digest %s\n", w.name, input, digest(s.outputs))
		}
		ref[w.name] = outs
	}
	data, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return fmt.Errorf("encode reference: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
