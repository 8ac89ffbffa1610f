package rl

import (
	"routerless/internal/topo"
)

// scoreTable holds one Algorithm 1 evaluation per grid rectangle: the
// legality of each direction, CheckCount, and both directions' Imprv sums.
// A greedy scan is then an argmax over the rows.
//
// Every row is exact after each AddLoop without rescanning a perimeter. A
// rectangle's score reads only the dist entries between its own perimeter
// nodes, its nodes' overlap relative to the cap, and its own membership in
// the loop set. So, on grids with the pair index:
//
//   - count and icw/iccw change only in the rectangles containing both
//     endpoints of an improved dist entry, which the pair→rectangles index
//     lists together with the pair's perimeter gap. Every Imprv term is
//     max(0, cur − gap), where cur is a hop count or the integer 5N
//     sentinel, so each direction's sum is an integer: the walk adds each
//     term's new − old delta and decrements count for a pair that was
//     unconnected. Integer sums are exact in any order, so the converted
//     Gain equals the brute scan's float64 sum bit for bit.
//   - legality only ever turns off, because overlap and the loop set only
//     grow: every rectangle through a node that just reached the cap loses
//     both directions, and the added rectangle loses the direction just
//     added.
//
// Grids too large for the pair index mark every rectangle sharing a node
// with the added loop (a strict superset) and re-score those in sync.
//
// Rows are kept for illegal rectangles too, so the whole table always
// equals a fresh rescore; Reset restores the empty-design table from a
// copy taken the first time an empty design is scored under the current
// MaxLoopLen and cap.
type scoreTable struct {
	tab      *topo.GridTables
	sc       []rectScore
	dirty    []int32
	inDirty  []bool
	allDirty bool
	// empty is sc for the empty design, valid while emptyOK.
	empty   []rectScore
	emptyOK bool
	// sentinel is the integer 5N charged to unconnected pairs.
	sentinel int32
	// Constraint snapshot the scores were computed under; sync re-scores
	// everything when a caller moves either knob between scans.
	maxLoopLen int
	overlapCap int
}

// rectScore is one rectangle's evaluation. cwOK/ccwOK record per-direction
// legality (length constraint, duplication, overlap cap); count is
// CheckCount; icw/iccw are Imprv's clockwise and counterclockwise sums;
// ll is the perimeter length.
type rectScore struct {
	count     int32
	icw, iccw int32
	ll        uint16
	cwOK      bool
	ccwOK     bool
}

// scoresSynced returns the environment's score table, fully synchronized
// with the current topology; it is built (all-dirty) on first use.
func (e *Env) scoresSynced() *scoreTable {
	s := e.scores
	if s == nil {
		tab := e.topo.Tables()
		s = &scoreTable{
			tab:        tab,
			sc:         make([]rectScore, tab.NumRects()),
			inDirty:    make([]bool, tab.NumRects()),
			allDirty:   true,
			sentinel:   int32(topo.UnconnectedHops(e.topo.Rows(), e.topo.Cols())),
			maxLoopLen: e.MaxLoopLen,
			overlapCap: e.topo.OverlapCap(),
		}
		e.scores = s
	}
	if s.maxLoopLen != e.MaxLoopLen || s.overlapCap != e.topo.OverlapCap() {
		s.maxLoopLen = e.MaxLoopLen
		s.overlapCap = e.topo.OverlapCap()
		s.allDirty = true
		s.emptyOK = false
	}
	s.sync(e)
	return s
}

// sync re-scores whatever is marked: every row when allDirty (first use, a
// constraint change, or a reset without a template), else the fallback
// path's dirty rectangles.
func (s *scoreTable) sync(e *Env) {
	if s.allDirty {
		for ri := range s.sc {
			s.rescore(e, int32(ri))
		}
		if e.topo.NumLoops() == 0 {
			s.empty = append(s.empty[:0], s.sc...)
			s.emptyOK = true
		}
	} else {
		for _, ri := range s.dirty {
			s.rescore(e, ri)
		}
	}
	s.clearDirty()
}

// noteAdded applies the new loop's exact perturbation to the table,
// reading the changed dist entries and saturated nodes off the topology
// (see the type comment for why this set is complete).
func (s *scoreTable) noteAdded(t *topo.Topology, l topo.Loop) {
	if s.allDirty {
		return
	}
	if !s.tab.HasPairIndex() {
		for _, id := range s.tab.NodesOf(l) {
			for _, ri := range s.tab.RectsAt(int(id)) {
				s.mark(ri)
			}
		}
		return
	}
	dist := t.DistData()
	pairs, old := t.LastAddChangedPairs()
	for k, pk := range pairs {
		// For nd < od, max(0, nd−g) − max(0, od−g) = min(max(g, nd) − od, 0).
		nd := int32(dist[pk])
		od := int32(old[k])
		var newPair int32
		if od < 0 {
			od, newPair = s.sentinel, 1
		}
		for _, ent := range s.tab.RectsAtPair(pk) {
			sc := &s.sc[ent>>topo.PairGapBits]
			g := int32(ent & (1<<topo.PairGapBits - 1))
			sc.icw += min(max(g, nd)-od, 0)
			sc.iccw += min(max(int32(sc.ll)-g, nd)-od, 0)
			sc.count -= newPair
		}
	}
	for _, id := range t.LastAddSaturatedNodes() {
		for _, ri := range s.tab.RectsAt(int(id)) {
			s.sc[ri].cwOK, s.sc[ri].ccwOK = false, false
		}
	}
	if ri := s.tab.RectIndex(l); ri >= 0 {
		if l.Dir == topo.Clockwise {
			s.sc[ri].cwOK = false
		} else {
			s.sc[ri].ccwOK = false
		}
	}
}

func (s *scoreTable) mark(ri int32) {
	if !s.inDirty[ri] {
		s.inDirty[ri] = true
		s.dirty = append(s.dirty, ri)
	}
}

func (s *scoreTable) clearDirty() {
	s.allDirty = false
	for _, ri := range s.dirty {
		s.inDirty[ri] = false
	}
	s.dirty = s.dirty[:0]
}

// reset serves an emptied topology by restoring the empty-design table.
// A table taken under other constraints is harmless: scoresSynced's
// snapshot check re-scores everything before the next read.
func (s *scoreTable) reset() {
	s.clearDirty()
	if s.emptyOK {
		copy(s.sc, s.empty)
	} else {
		s.allDirty = true
	}
}

// rescore recomputes one rectangle's row from scratch: legality by
// CheckAdd, and count with both Imprv sums in one pass over the perimeter
// pairs. Loop distances are index gaps in the clockwise ID list (the
// counterclockwise distance is the complement); current distances come
// from the topology's dist cache.
func (s *scoreTable) rescore(e *Env, ri int32) {
	r := &s.tab.Rects()[ri]
	cw := r.Loop(topo.Clockwise)
	allowed := e.allowed(cw)
	ids := r.Nodes
	ll := int32(len(ids))
	n := e.topo.N()
	dist := e.topo.DistData()
	var count, icw, iccw int32
	for i, u := range ids {
		row := int(u) * n
		for j, v := range ids {
			if i == j {
				continue
			}
			cur := int32(dist[row+int(v)])
			if cur < 0 {
				count++
				cur = s.sentinel
			}
			g := int32(j - i)
			if g < 0 {
				g += ll
			}
			icw += max(cur-g, 0)
			iccw += max(cur-(ll-g), 0)
		}
	}
	s.sc[ri] = rectScore{
		count: count,
		icw:   icw,
		iccw:  iccw,
		ll:    uint16(ll),
		cwOK:  allowed && e.topo.CheckAdd(cw) == nil,
		ccwOK: allowed && e.topo.CheckAdd(r.Loop(topo.Counterclockwise)) == nil,
	}
}
