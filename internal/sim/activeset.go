package sim

// activeSet tracks which stepping units (routers, source nodes, nodes with
// parked flits) a simulator cycle must visit. Membership is O(1) via the
// mark array; the member list is kept in ascending index order because the
// reference walks visit every unit in index order, and the cycle must
// observe shared state (ejection-port budgets, credits, the mesh pipe) in
// exactly the same order.
//
// Mutation discipline (what makes iteration safe without snapshots):
// add() is only called at points where the set is not being iterated —
// Inject, pipe landing, extension parking — and removals happen only in
// the retain sweep at the end of Step. Both list and mark are
// preallocated to the unit count, so steady-state maintenance never
// touches the heap.
type activeSet struct {
	list []int32
	mark []bool
}

func newActiveSet(n int) activeSet {
	return activeSet{list: make([]int32, 0, n), mark: make([]bool, n)}
}

func (s *activeSet) len() int { return len(s.list) }

// add inserts i keeping the list sorted; a no-op when already a member.
// Units tend to activate in ascending sweep order, so the insertion scan
// is usually a plain append.
func (s *activeSet) add(i int) {
	if s.mark[i] {
		return
	}
	s.mark[i] = true
	j := len(s.list)
	s.list = append(s.list, 0)
	for j > 0 && s.list[j-1] > int32(i) {
		s.list[j] = s.list[j-1]
		j--
	}
	s.list[j] = int32(i)
}

// retain drops the members for which keep reports false, preserving the
// order of the rest.
func (s *activeSet) retain(keep func(i int32) bool) {
	w := 0
	for _, v := range s.list {
		if keep(v) {
			s.list[w] = v
			w++
		} else {
			s.mark[v] = false
		}
	}
	s.list = s.list[:w]
}

// clear empties the set.
func (s *activeSet) clear() {
	for _, v := range s.list {
		s.mark[v] = false
	}
	s.list = s.list[:0]
}
