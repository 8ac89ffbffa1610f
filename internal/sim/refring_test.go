package sim

import (
	"fmt"

	"routerless/internal/topo"
)

// refRing is the reference routerless simulator the parity suite and the
// fuzz targets hold Ring to: the dense per-slot walk Ring ran before the
// rotating-frame rewrite, kept verbatim apart from renames. Every cycle it
// visits every slot of every loop and every node, moves each flit one slot
// through a second slot array, and counts hops and occupancy by walking
// the slots — no calendar, no counters, nothing to keep consistent.
type refRing struct {
	topo  *topo.Topology
	rt    *topo.RoutingTable
	cfg   RingConfig
	loops []*refLoop
	// posOf[loopIdx][nodeID] = perimeter index or -1.
	posOf [][]int

	routeLoop []int32
	routeDist []int32

	srcQueue  []queue[*refInjecting]
	extension []ringBuf[*refFlit]

	flits pool[refFlit]
	injs  pool[refInjecting]

	ejected []int

	cycle    int
	inFlight int

	failed    []bool
	onDeliver func(*Packet)
	recycle   func(*Packet)

	slotSamples    int64
	slotOccupied   int64
	loopOccupied   []int64
	circulations   int64
	injectedFlits  int64
	deliveredFlits int64
	droppedFlits   int64
}

// refFlit is one in-flight flit on a reference loop.
type refFlit struct {
	pkt  *Packet
	tail bool
	hops int
}

// refLoop is the conveyor of per-node flit buffers for one loop. slot[i]
// holds the flit currently latched at perimeter position i; every cycle all
// flits advance one position.
type refLoop struct {
	loop  topo.Loop
	nodes []int // node IDs along traversal order
	slot  []*refFlit
	next  []*refFlit
}

// refInjecting tracks a packet mid-injection at its source NI.
type refInjecting struct {
	pkt      *Packet
	loopIdx  int
	sent     int // flits already placed on the ring
	distance int // hops to destination on the chosen loop
}

func newRefRing(t *topo.Topology, cfg RingConfig) *refRing {
	if cfg.EjectPorts < 1 || cfg.InjectPerCycle < 1 {
		panic("sim: RingConfig needs at least one inject and eject port")
	}
	r := &refRing{
		topo:      t,
		rt:        topo.BuildRoutingTable(t),
		cfg:       cfg,
		srcQueue:  make([]queue[*refInjecting], t.N()),
		extension: make([]ringBuf[*refFlit], t.N()),
		ejected:   make([]int, t.N()),
	}
	for i := range r.extension {
		r.extension[i] = newRingBuf[*refFlit](cfg.ExtensionBuffers)
	}
	for _, l := range t.Loops() {
		ls := &refLoop{
			loop: l,
			slot: make([]*refFlit, l.Len()),
			next: make([]*refFlit, l.Len()),
		}
		for _, n := range l.Nodes() {
			ls.nodes = append(ls.nodes, n.ID(t.Cols()))
		}
		r.loops = append(r.loops, ls)
		pos := make([]int, t.N())
		for i := range pos {
			pos[i] = -1
		}
		for i, id := range ls.nodes {
			pos[id] = i
		}
		r.posOf = append(r.posOf, pos)
	}
	r.loopOccupied = make([]int64, len(r.loops))
	r.cacheRoutes()
	return r
}

func (r *refRing) cacheRoutes() {
	n := r.topo.N()
	if r.routeLoop == nil {
		r.routeLoop = make([]int32, n*n)
		r.routeDist = make([]int32, n*n)
	}
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			r.routeLoop[s*n+d] = int32(r.rt.LoopID(s, d))
			r.routeDist[s*n+d] = int32(r.rt.DistID(s, d))
		}
	}
}

func (r *refRing) Nodes() int                 { return r.topo.N() }
func (r *refRing) Cycle() int                 { return r.cycle }
func (r *refRing) InFlight() int              { return r.inFlight }
func (r *refRing) OnDeliver(fn func(*Packet)) { r.onDeliver = fn }

func (r *refRing) Inject(p *Packet) {
	n := r.topo.N()
	li := int(r.routeLoop[p.Src*n+p.Dst])
	if li < 0 {
		panic(fmt.Sprintf("sim: no loop connects %d -> %d", p.Src, p.Dst))
	}
	p.remaining = p.NumFlits
	inj := r.injs.get()
	inj.pkt, inj.loopIdx, inj.distance = p, li, int(r.routeDist[p.Src*n+p.Dst])
	r.srcQueue[p.Src].push(inj)
	r.inFlight++
}

// Step is the dense cycle: every loop slot and every node is walked
// unconditionally.
func (r *refRing) Step() {
	ejected := r.ejected
	for i := range ejected {
		ejected[i] = 0
	}

	// Phase 0: drain extension buffers into ejection ports first (they
	// arrived earliest).
	for n := 0; n < r.topo.N(); n++ {
		ext := &r.extension[n]
		for ext.len() > 0 && ejected[n] < r.cfg.EjectPorts {
			r.finishFlit(ext.pop())
			ejected[n]++
		}
	}

	// Phase 1+2: ejection decision and advance, per loop.
	for li, ls := range r.loops {
		if li < len(r.failed) && r.failed[li] {
			continue
		}
		for i := range ls.next {
			ls.next[i] = nil
		}
		for i, f := range ls.slot {
			if f == nil {
				continue
			}
			node := ls.nodes[i]
			if f.pkt.Dst == node {
				if ejected[node] < r.cfg.EjectPorts {
					ejected[node]++
					r.finishFlit(f)
					continue
				}
				if r.extension[node].len() < r.cfg.ExtensionBuffers {
					r.extension[node].push(f)
					continue
				}
				// No room: circulate the loop again.
				r.circulations++
			}
			j := i + 1
			if j == len(ls.slot) {
				j = 0
			}
			f.hops++
			ls.next[j] = f
		}
		ls.slot, ls.next = ls.next, ls.slot
	}

	// Phase 3: injection.
	for n := 0; n < r.topo.N(); n++ {
		budget := r.cfg.InjectPerCycle
		q := &r.srcQueue[n]
		for budget > 0 && q.len() > 0 {
			inj := q.front()
			ls := r.loops[inj.loopIdx]
			pos := r.posOf[inj.loopIdx][n]
			if ls.slot[pos] != nil {
				break // ring traffic has priority; wait for a gap
			}
			f := r.flits.get()
			f.pkt, f.tail = inj.pkt, inj.sent == inj.pkt.NumFlits-1
			ls.slot[pos] = f
			r.injectedFlits++
			inj.sent++
			budget--
			if inj.sent == inj.pkt.NumFlits {
				q.pop()
				r.injs.put(inj)
			}
		}
	}

	// Utilization sampling (global and per loop).
	for li, ls := range r.loops {
		if li < len(r.failed) && r.failed[li] {
			continue
		}
		r.slotSamples += int64(len(ls.slot))
		for _, f := range ls.slot {
			if f != nil {
				r.slotOccupied++
				r.loopOccupied[li]++
			}
		}
	}
	r.cycle++
}

func (r *refRing) finishFlit(f *refFlit) {
	p, hops := f.pkt, f.hops
	r.flits.put(f)
	if p.remaining <= 0 {
		return // packet already lost to a loop failure
	}
	p.remaining--
	r.deliveredFlits++
	if hops > p.Hops {
		p.Hops = hops
	}
	if p.remaining == 0 {
		p.Done = r.cycle
		r.inFlight--
		if r.onDeliver != nil {
			r.onDeliver(p)
		}
		if r.recycle != nil {
			r.recycle(p)
		}
	}
}

func (r *refRing) LinkUtilization() float64 {
	if r.slotSamples == 0 {
		return 0
	}
	return float64(r.slotOccupied) / float64(r.slotSamples)
}

func (r *refRing) Circulations() int64   { return r.circulations }
func (r *refRing) InjectedFlits() int64  { return r.injectedFlits }
func (r *refRing) DeliveredFlits() int64 { return r.deliveredFlits }
func (r *refRing) DroppedFlits() int64   { return r.droppedFlits }

func (r *refRing) Degraded() *topo.RoutingTable { return r.rt }

func (r *refRing) BufferOccupancy() int {
	n := 0
	for i := range r.extension {
		n += r.extension[i].len()
	}
	return n
}

// ActiveLoops counts the loops carrying a flit from the slot state itself,
// the ground truth Ring's occupancy counters are compared against.
func (r *refRing) ActiveLoops() int {
	n := 0
	for li, ls := range r.loops {
		if li < len(r.failed) && r.failed[li] {
			continue
		}
		for _, f := range ls.slot {
			if f != nil {
				n++
				break
			}
		}
	}
	return n
}

func (r *refRing) LoopUtilization() []float64 {
	out := make([]float64, len(r.loops))
	if r.cycle == 0 {
		return out
	}
	for li, occ := range r.loopOccupied {
		out[li] = float64(occ) / float64(int64(r.loops[li].loop.Len())*int64(r.cycle))
	}
	return out
}

// FailLoop is Ring.FailLoop on the reference slot arrays.
func (r *refRing) FailLoop(idx int) {
	if idx < 0 || idx >= len(r.loops) {
		panic(fmt.Sprintf("sim: FailLoop index %d out of range", idx))
	}
	if r.failed == nil {
		r.failed = make([]bool, len(r.loops))
	}
	if r.failed[idx] {
		return
	}
	r.failed[idx] = true

	// Drop in-flight flits on the failed loop; their packets are lost.
	ls := r.loops[idx]
	for i, f := range ls.slot {
		if f == nil {
			continue
		}
		r.droppedFlits++
		if f.pkt.remaining > 0 {
			r.inFlight--
			f.pkt.remaining = -1 // failed marker; Done stays -1
		}
		ls.slot[i] = nil
		r.flits.put(f)
	}

	r.rt = topo.BuildRoutingTableExcluding(r.topo, r.failed)
	r.cacheRoutes()

	// Re-route or drop packets still queued at source NIs. Cycling each
	// queue through exactly its current length preserves FIFO order.
	for n := range r.srcQueue {
		q := &r.srcQueue[n]
		for cnt := q.len(); cnt > 0; cnt-- {
			inj := q.pop()
			if !r.failed[inj.loopIdx] {
				q.push(inj)
				continue
			}
			if inj.sent > 0 || inj.pkt.remaining <= 0 {
				// Partially on the failed loop: lost.
				r.droppedFlits += int64(inj.pkt.NumFlits - inj.sent)
				if inj.pkt.remaining > 0 {
					r.inFlight--
					inj.pkt.remaining = -1
				}
				r.injs.put(inj)
				continue
			}
			li := int(r.routeLoop[inj.pkt.Src*r.topo.N()+inj.pkt.Dst])
			if li < 0 {
				r.droppedFlits += int64(inj.pkt.NumFlits)
				r.inFlight--
				inj.pkt.remaining = -1
				r.injs.put(inj)
				continue
			}
			inj.loopIdx = li
			inj.distance = int(r.routeDist[inj.pkt.Src*r.topo.N()+inj.pkt.Dst])
			q.push(inj)
		}
	}
}

func (r *refRing) swapRecycle(fn func(*Packet)) func(*Packet) {
	prev := r.recycle
	r.recycle = fn
	return prev
}
