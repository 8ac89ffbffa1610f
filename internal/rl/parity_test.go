package rl

import (
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"routerless/internal/topo"
)

// bruteLegalActions is the original O(N⁴) enumeration, kept in tests as
// the oracle for the score-table-backed LegalActions.
func bruteLegalActions(e *Env) []Action {
	var out []Action
	for x1 := 0; x1 < e.N-1; x1++ {
		for y1 := 0; y1 < e.N-1; y1++ {
			for x2 := x1 + 1; x2 < e.N; x2++ {
				for y2 := y1 + 1; y2 < e.N; y2++ {
					for _, dir := range []topo.Direction{topo.Clockwise, topo.Counterclockwise} {
						l := topo.MustLoop(x1, y1, x2, y2, dir)
						if e.allowed(l) && e.topo.CheckAdd(l) == nil {
							out = append(out, Action{x1, y1, x2, y2, dir})
						}
					}
				}
			}
		}
	}
	return out
}

// bruteGreedySearch is the original full O(N⁴) rescan, the parity oracle
// for the score-table GreedySearch: the property tests assert both return
// identical results on arbitrary partial designs.
func bruteGreedySearch(e *Env) GreedyResult {
	bestLoop := Action{}
	bestCount := -1
	bestImprv := 0.0
	found := false
	for x1 := 0; x1 < e.N-1; x1++ {
		for y1 := 0; y1 < e.N-1; y1++ {
			for x2 := x1 + 1; x2 < e.N; x2++ {
				for y2 := y1 + 1; y2 < e.N; y2++ {
					cw := topo.MustLoop(x1, y1, x2, y2, topo.Clockwise)
					ccw := topo.MustLoop(x1, y1, x2, y2, topo.Counterclockwise)
					if !e.allowed(cw) {
						continue
					}
					cwOK := e.topo.CheckAdd(cw) == nil
					ccwOK := e.topo.CheckAdd(ccw) == nil
					if !cwOK && !ccwOK {
						continue
					}
					count := CheckCount(e.topo, cw)
					if count < bestCount {
						continue
					}
					imprv, dir := Imprv(e.topo, cw, cwOK, ccwOK)
					if count > bestCount || imprv > bestImprv {
						bestCount = count
						bestImprv = imprv
						bestLoop = Action{x1, y1, x2, y2, dir}
						found = true
					}
				}
			}
		}
	}
	return GreedyResult{Action: bestLoop, NewPairs: bestCount, Gain: bestImprv, OK: found}
}

// CheckCount returns the number of ordered node pairs newly connected by
// adding the rectangle of loop l (direction-independent: a loop connects
// the same pairs either way).
func CheckCount(t *topo.Topology, l topo.Loop) int {
	nodes := l.Nodes()
	count := 0
	for _, u := range nodes {
		for _, v := range nodes {
			if u == v {
				continue
			}
			if t.Dist(u, v) < 0 {
				count++
			}
		}
	}
	return count
}

// Imprv evaluates the average-hop-count benefit of adding loop l in each
// permitted direction and returns the larger improvement with its
// direction. Improvement sums, over the loop's perimeter pairs, the
// distance reduction relative to the current design (unconnected pairs
// count as the 5N sentinel).
func Imprv(t *topo.Topology, l topo.Loop, cwOK, ccwOK bool) (float64, topo.Direction) {
	nodes := l.Nodes()
	sentinel := topo.UnconnectedHops(t.Rows(), t.Cols())
	evaluate := func(dir topo.Direction) float64 {
		ld := l
		ld.Dir = dir
		sum := 0.0
		for _, u := range nodes {
			for _, v := range nodes {
				if u == v {
					continue
				}
				cur := float64(t.Dist(u, v))
				if cur < 0 {
					cur = sentinel
				}
				nd := float64(ld.Dist(u, v))
				if nd < cur {
					sum += cur - nd
				}
			}
		}
		return sum
	}
	switch {
	case cwOK && ccwOK:
		icw := evaluate(topo.Clockwise)
		iccw := evaluate(topo.Counterclockwise)
		if iccw > icw {
			return iccw, topo.Counterclockwise
		}
		return icw, topo.Clockwise
	case cwOK:
		return evaluate(topo.Clockwise), topo.Clockwise
	default:
		return evaluate(topo.Counterclockwise), topo.Counterclockwise
	}
}

// seedRandomDesign plays random (frequently illegal) actions; only the
// valid ones mutate, yielding an arbitrary reachable partial topology.
func seedRandomDesign(e *Env, rng *rand.Rand, steps int) {
	for i := 0; i < steps; i++ {
		a := Action{
			X1: rng.Intn(e.N), Y1: rng.Intn(e.N),
			X2: rng.Intn(e.N), Y2: rng.Intn(e.N),
			Dir: topo.Direction(rng.Intn(2)),
		}
		e.Step(a)
	}
}

// TestGreedySearchMatchesBruteRandomized pins the tentpole parity claim:
// on randomized partial topologies (varying N, cap, MaxLoopLen, seeded
// loop sets) the incremental GreedySearch returns the identical
// GreedyResult — action, pair count, bit-identical gain — to the brute
// rescan, both on the first (all-dirty) scan and across subsequent
// incremental re-scores.
func TestGreedySearchMatchesBruteRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(5) // 3..7
		cap := rng.Intn(2 * n)
		e := NewEnv(n, cap)
		if rng.Intn(3) == 0 {
			e.MaxLoopLen = 6 + 2*rng.Intn(n)
		}
		seedRandomDesign(e, rng, rng.Intn(20))
		for round := 0; round < 5; round++ {
			inc := GreedySearch(e)
			brute := bruteGreedySearch(e)
			if inc != brute {
				t.Fatalf("trial %d round %d (n=%d cap=%d maxlen=%d): incremental %+v != brute %+v",
					trial, round, n, cap, e.MaxLoopLen, inc, brute)
			}
			if !inc.OK {
				break
			}
			if _, kind := e.Step(inc.Action); kind != Valid {
				t.Fatalf("trial %d: greedy action unplayable", trial)
			}
		}
	}
}

// TestLegalActionsMatchBruteRandomized pins LegalActions / HasLegalAction
// against the original enumeration on the same kind of randomized designs.
func TestLegalActionsMatchBruteRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(5)
		e := NewEnv(n, 1+rng.Intn(2*n))
		if rng.Intn(4) == 0 {
			e.MaxLoopLen = 4 + 2*rng.Intn(n)
		}
		seedRandomDesign(e, rng, rng.Intn(16))
		got := e.LegalActions()
		want := bruteLegalActions(e)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d legal actions, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: action %d = %v, want %v", trial, i, got[i], want[i])
			}
		}
		if e.HasLegalAction() != (len(want) > 0) {
			t.Fatalf("trial %d: HasLegalAction disagrees with enumeration", trial)
		}
	}
}

// TestGreedyCompleteTraceMatchesBrute drives two environments to wiring
// exhaustion — one through the incremental search, one through the brute
// oracle — and asserts the full added-loop sequences are identical.
func TestGreedyCompleteTraceMatchesBrute(t *testing.T) {
	for _, cfg := range []struct{ n, cap, maxLen int }{
		{4, 6, 0}, {5, 8, 0}, {6, 10, 12},
	} {
		inc := NewEnv(cfg.n, cfg.cap)
		brute := NewEnv(cfg.n, cfg.cap)
		inc.MaxLoopLen = cfg.maxLen
		brute.MaxLoopLen = cfg.maxLen
		var incTrace, bruteTrace []Action
		for {
			r := GreedySearch(inc)
			if !r.OK {
				break
			}
			inc.Step(r.Action)
			incTrace = append(incTrace, r.Action)
		}
		for {
			r := bruteGreedySearch(brute)
			if !r.OK {
				break
			}
			brute.Step(r.Action)
			bruteTrace = append(bruteTrace, r.Action)
		}
		if len(incTrace) != len(bruteTrace) {
			t.Fatalf("n=%d cap=%d: %d loops vs brute %d", cfg.n, cfg.cap, len(incTrace), len(bruteTrace))
		}
		for i := range incTrace {
			if incTrace[i] != bruteTrace[i] {
				t.Fatalf("n=%d cap=%d: loop %d = %v, brute chose %v",
					cfg.n, cfg.cap, i, incTrace[i], bruteTrace[i])
			}
		}
		if inc.Fingerprint() != brute.Fingerprint() {
			t.Fatalf("n=%d cap=%d: completed designs differ", cfg.n, cfg.cap)
		}
	}
}

// TestGreedySearchAfterReset verifies the score table survives environment
// recycling: a Reset must restore the blank-design table and reproduce the
// blank-design scan.
func TestGreedySearchAfterReset(t *testing.T) {
	e := NewEnv(4, 6)
	first := GreedySearch(e)
	GreedyComplete(e)
	e.Reset()
	again := GreedySearch(e)
	if first != again {
		t.Fatalf("post-reset scan %+v != fresh scan %+v", again, first)
	}
	fresh := NewEnv(4, 6)
	if got, want := GreedyComplete(e), GreedyComplete(fresh); got != want {
		t.Fatalf("post-reset completion added %d loops, fresh env %d", got, want)
	}
	if e.Fingerprint() != fresh.Fingerprint() {
		t.Fatal("recycled env produced a different design than a fresh env")
	}
}

// checkGreedy asserts GreedySearch equals bruteGreedySearch on e's
// current design, Gain compared bit for bit, and returns the result.
func checkGreedy(t *testing.T, e *Env, where string) GreedyResult {
	t.Helper()
	inc, brute := GreedySearch(e), bruteGreedySearch(e)
	if inc.Action != brute.Action || inc.NewPairs != brute.NewPairs || inc.OK != brute.OK ||
		math.Float64bits(inc.Gain) != math.Float64bits(brute.Gain) {
		t.Fatalf("%s: GreedySearch %+v != brute %+v", where, inc, brute)
	}
	return brute
}

// checkScores asserts the score table against the oracles on e's current
// design: checkGreedy, LegalActions equal to the brute enumeration, and
// every row — legality, count and both Imprv sums — equal to a fresh
// rescore.
func checkScores(t *testing.T, e *Env, where string) {
	t.Helper()
	checkGreedy(t, e, where)
	if got, want := e.LegalActions(), bruteLegalActions(e); !slices.Equal(got, want) {
		t.Fatalf("%s: %d legal actions, brute %d", where, len(got), len(want))
	}
	checkRows(t, e.scoresSynced().sc, e.Clone().scoresSynced().sc, where+" vs fresh rescore")
}

func checkRows(t *testing.T, got, want []rectScore, where string) {
	t.Helper()
	for ri := range want {
		if got[ri] != want[ri] {
			t.Fatalf("%s: rect %d row %+v, want %+v", where, ri, got[ri], want[ri])
		}
	}
}

// FuzzScoreTableMatchesBrute decodes bytes into a grid of side 3–7, a cap
// and a MaxLoopLen, then a stream of operations: explicit actions
// (degenerate, out of bounds, illegal and repeated ones included), greedy
// steps, Resets, cap changes (which take effect at Reset) and mid-episode
// MaxLoopLen changes. After each operation whose high bit is clear it runs
// checkScores, and after a Reset it also compares the table against a
// freshly built environment's; a set high bit lets adds pile up unsynced.
func FuzzScoreTableMatchesBrute(f *testing.F) {
	f.Add([]byte{2, 7, 0, 3, 3, 3, 5, 0x12, 0x34, 4, 3, 0})
	f.Add([]byte{4, 3, 9, 0x83, 0x83, 0x83, 3, 1, 5, 0, 3, 2, 7, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		n := 3 + next()%5
		maxLen := func(b int) int {
			if b%2 == 0 {
				return 0
			}
			return 4 + 2*(b/2%(2*n))
		}
		e := NewEnv(n, next()%(2*n))
		e.MaxLoopLen = maxLen(next())
		var last Action
		for step := 0; len(data) > 0; step++ {
			op := next()
			switch op % 8 {
			case 1:
				e.OverlapCap = next() % (2 * n)
				fallthrough
			case 0:
				e.Reset()
				if op < 0x80 {
					fresh := NewEnv(n, e.OverlapCap)
					fresh.MaxLoopLen = e.MaxLoopLen
					checkRows(t, e.scoresSynced().sc, fresh.scoresSynced().sc, "after Reset")
				}
			case 2:
				e.MaxLoopLen = maxLen(next())
			case 3:
				if r := GreedySearch(e); r.OK {
					if _, kind := e.Step(r.Action); kind != Valid {
						t.Fatalf("step %d: greedy action %v played %v", step, r.Action, kind)
					}
					last = r.Action
				}
			case 4:
				e.Step(last)
			default:
				a, b := next(), next()
				// Coordinates run to n inclusive, so some fall off the grid.
				act := Action{(a & 15) % (n + 1), (a >> 4) % (n + 1), (b & 15) % (n + 1), (b >> 4) % (n + 1), topo.Direction((op >> 3) & 1)}
				if _, kind := e.Step(act); kind == Valid {
					last = act
				}
			}
			if op < 0x80 {
				checkScores(t, e, "step "+strconv.Itoa(step))
			}
		}
		checkScores(t, e, "end")
	})
}

// TestGreedyImproveTraceMatchesBrute10x10 replays a 10×10, cap-18 search
// episode's completion — GreedyImprove under the search's default early
// stop (MinGain 1e-9, patience 2) after five guided loops — and checks
// every choice against the brute oracle. The guided prefix is the best
// design's from a no-DNN search; blank-grid greedy never connects at this
// cap. Nearly half of the completion (37 of 82 loops) follows full
// connectivity, where every count is 0 and Imprv alone decides, a phase
// the 3–7 grids above barely reach.
func TestGreedyImproveTraceMatchesBrute10x10(t *testing.T) {
	guided := []Action{
		{0, 0, 4, 9, topo.Counterclockwise}, {1, 0, 9, 9, topo.Clockwise},
		{0, 1, 9, 8, topo.Counterclockwise}, {2, 0, 8, 9, topo.Counterclockwise},
		{0, 2, 9, 7, topo.Clockwise},
	}
	run, replay := NewEnv(10, 18), NewEnv(10, 18)
	for _, a := range guided {
		run.Step(a)
		replay.Step(a)
	}
	GreedyImprove(run, 1e-9, 2)
	if !run.FullyConnected() {
		t.Fatal("completion left the design unconnected")
	}
	connectedAt := -1
	loops := run.Topology().Loops()
	for k := len(guided); k < len(loops); k++ {
		where := "loop " + strconv.Itoa(k)
		r := checkGreedy(t, replay, where)
		if got, ok := r.Action.Loop(); !ok || got != loops[k] {
			t.Fatalf("%s: GreedyImprove added %v, brute chooses %v", where, loops[k], r.Action)
		}
		replay.Step(r.Action)
		if connectedAt < 0 && replay.FullyConnected() {
			connectedAt = k
		}
	}
	checkScores(t, replay, "after the last loop")
	t.Logf("%d loops, fully connected after loop %d", len(loops), connectedAt)
	if post := len(loops) - 1 - connectedAt; post < 10 {
		t.Fatalf("only %d loops after full connectivity; the trace should exercise Imprv-only choices", post)
	}
}

// TestGreedySearchMatchesBruteWithoutPairIndex covers grids above the pair
// index's size bound, where noteAdded marks and sync re-scores: a few
// greedy steps on 15×15, then one more from the Reset template.
func TestGreedySearchMatchesBruteWithoutPairIndex(t *testing.T) {
	e := NewEnv(15, 28)
	if e.Topology().Tables().HasPairIndex() {
		t.Fatal("15x15 has a pair index; this test needs a grid above the bound")
	}
	e.MaxLoopLen = 40
	for k := 0; k < 4; k++ {
		checkScores(t, e, "step "+strconv.Itoa(k))
		r := GreedySearch(e)
		if _, kind := e.Step(r.Action); kind != Valid {
			t.Fatalf("step %d: greedy action %v played %v", k, r.Action, kind)
		}
		e.Step(Action{k, k, 14 - k, 14 - k, topo.Counterclockwise})
	}
	e.Reset()
	e.Step(Action{0, 0, 3, 5, topo.Clockwise})
	checkScores(t, e, "after Reset")
}
