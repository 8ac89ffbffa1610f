package rl

import (
	"routerless/internal/topo"
)

// GreedyResult reports the outcome of one Algorithm 1 scan.
type GreedyResult struct {
	Action Action
	// NewPairs is CheckCount for the chosen loop: ordered pairs newly
	// connected.
	NewPairs int
	// Gain is the hop-count improvement metric of Imprv.
	Gain float64
	// OK is false when no legal loop exists.
	OK bool
}

// Greedy implements Algorithm 1 of the paper: scan every rectangle, prefer
// the loop that newly connects the most node pairs (CheckCount); break
// ties by the average-hop-count improvement (Imprv), which also selects
// the loop direction. It returns false when no legal loop exists.
func Greedy(e *Env) (Action, bool) {
	r := GreedySearch(e)
	return r.Action, r.OK
}

// GreedySearch is Greedy with the winning loop's metrics exposed, letting
// callers trim exploration branches whose best remaining addition is
// useless (§3.2, "Guided Design Space Search").
//
// It is an argmax over the environment's score table, which keeps every
// rectangle's legality, CheckCount and per-direction Imprv sums exact as
// loops are added (see scoreTable). The rows are walked in brute-force
// enumeration order with the brute scan's tie-breaks, so the result is
// byte-identical to a full rescan, which the parity tests enforce.
func GreedySearch(e *Env) GreedyResult {
	s := e.scoresSynced()
	bestRect := -1
	bestCount := int32(-1)
	bestImprv := int32(0)
	bestDir := topo.Clockwise
	for ri := range s.sc {
		sc := &s.sc[ri]
		if !sc.cwOK && !sc.ccwOK || sc.count < bestCount {
			continue
		}
		imprv, dir := sc.icw, topo.Clockwise
		if !sc.cwOK || sc.ccwOK && sc.iccw > sc.icw {
			imprv, dir = sc.iccw, topo.Counterclockwise
		}
		if sc.count > bestCount || imprv > bestImprv {
			bestCount, bestImprv, bestRect, bestDir = sc.count, imprv, ri, dir
		}
	}
	if bestRect < 0 {
		return GreedyResult{NewPairs: -1}
	}
	r := &s.tab.Rects()[bestRect]
	return GreedyResult{
		Action:   Action{r.R1, r.C1, r.R2, r.C2, bestDir},
		NewPairs: int(bestCount),
		Gain:     float64(bestImprv),
		OK:       true,
	}
}

// GreedyComplete drives Greedy until no legal loop remains, returning the
// number of loops added. It is the pure-heuristic baseline (and the
// fallback used when DRL exploration exhausts its penalty budget).
func GreedyComplete(e *Env) int {
	return GreedyImprove(e, -1, 0)
}

// GreedyImprove drives Greedy until the design stops improving: while not
// fully connected every addition helps; once connected, additions continue
// only while they reduce average hops by at least minGain, ending after
// patience consecutive no-gain additions. minGain < 0 disables the early
// stop (run to wiring exhaustion). It returns the number of loops added.
func GreedyImprove(e *Env, minGain float64, patience int) int {
	added := 0
	noGain := 0
	prev := e.AverageHops()
	for {
		a, ok := Greedy(e)
		if !ok {
			return added
		}
		if _, kind := e.Step(a); kind != Valid {
			// Greedy only proposes checked loops; a non-valid outcome
			// indicates an internal inconsistency.
			panic("rl: greedy proposed an unplayable action")
		}
		added++
		if minGain < 0 {
			continue
		}
		h := e.AverageHops()
		if e.FullyConnected() && prev-h < minGain {
			noGain++
		} else {
			noGain = 0
		}
		prev = h
		if patience > 0 && noGain >= patience {
			return added
		}
	}
}
