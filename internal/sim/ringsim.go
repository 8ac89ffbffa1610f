package sim

import (
	"fmt"
	"math/bits"

	"routerless/internal/topo"
)

// RingConfig parameterizes the routerless network model.
type RingConfig struct {
	// EjectPorts is the number of flits a node can sink per cycle across
	// all loops (the ejection link width).
	EjectPorts int
	// ExtensionBuffers is the number of shared extension-buffer slots per
	// node (REC's mechanism guaranteeing ejection, §2.1). A flit arriving
	// at its destination while the ejection ports are busy parks in an
	// extension buffer; when those are full it circulates the loop again.
	ExtensionBuffers int
	// InjectPerCycle is the number of flits a node can source per cycle
	// (the injection link width; the paper's single-cycle injection).
	InjectPerCycle int
}

// DefaultRingConfig matches the paper's REC/DRL setup: single-flit
// injection/ejection links plus a small pool of extension buffers.
func DefaultRingConfig() RingConfig {
	return RingConfig{EjectPorts: 1, ExtensionBuffers: 4, InjectPerCycle: 1}
}

// flit is one in-flight flit on a loop. born is the first cycle it is
// latched at its source slot; its hop count on leaving the loop at cycle c
// is c − born, set when it ejects or parks.
type flit struct {
	pkt  *Packet
	born int
	hops int
}

// Ring is the cycle-accurate routerless network simulator.
//
// Loops are conveyors: a flit advances one slot per cycle and never stalls,
// so its position is a pure function of the cycle. Each loop therefore
// keeps its slot array fixed and reads it in a rotating frame: the flit at
// slots[off+k] of loop li sits at perimeter position (k + c) mod L during
// cycle c's ejection phase, and advancing the loop costs nothing. At
// injection a flit is entered in the arrival calendar, a timing wheel of
// per-cycle bitmaps, under the cycle it reaches its destination slot; a
// cycle touches only that cycle's arrivals.
type Ring struct {
	topo *topo.Topology
	rt   *topo.RoutingTable
	cfg  RingConfig

	// slots holds every loop's slots back to back: loop li owns
	// slots[loopOff[li] : loopOff[li]+loopLen[li]].
	slots   []*flit
	loopOff []int
	loopLen []int
	// posOf[li*N+node] = node's perimeter index on loop li, or -1.
	posOf []int32
	// loopOf[g] is the loop of global position g = loopOff[li]+pos.
	loopOf []int32
	// routeLoop flattens the routing table by src*N+dst so the injection
	// path is one array read (rebuilt by FailLoop).
	routeLoop []int32

	// The arrival calendar: row a&wheelMask of wheel, words uint64s wide,
	// has bit g set when a flit reaches global position g — its
	// destination — in cycle a. Every arrival lies at most one loop length
	// ahead, and the wheel has more rows than the longest loop has slots.
	// Scanning a row's bits in ascending g meets arrivals in ascending
	// loop, then ascending position order.
	wheel     []uint64
	wheelMask int
	words     int

	// srcQueue[node] holds packets awaiting injection, each tracked by
	// flits remaining to inject.
	srcQueue []queue[*injecting]
	// extension[node] holds flits parked awaiting an ejection port.
	extension []ringBuf[*flit]

	// flits/injs recycle the per-flit and per-packet-in-queue records; in
	// steady state injection and delivery never allocate.
	flits pool[flit]
	injs  pool[injecting]

	// ejected counts this cycle's ejections per node; ejDirty lists the
	// nodes to reset before the next cycle.
	ejected []int
	ejDirty []int32

	// extActive is exactly the nodes with parked extension flits,
	// injActive the nodes with queued source packets, both ascending.
	extActive activeSet
	injActive activeSet

	// Occupancy counters, changed only on inject, eject, park and drop:
	// occ[li] flits on loop li, occTotal their sum, activeLoops the loops
	// with occ > 0, liveSlots the summed length of the non-failed loops.
	// loopOccupied[li] sums occ[li] over the cycles before occSince[li];
	// the cycles since then all had the current occ[li].
	occ         []int32
	occTotal    int64
	activeLoops int
	liveSlots   int64
	occSince    []int

	cycle    int
	inFlight int

	// failed[i] marks loop i disabled by FailLoop (reliability studies);
	// nil until the first failure.
	failed []bool
	// onDeliver, when set, observes each completed packet (tracing).
	onDeliver func(*Packet)
	// recycle, when set, reclaims a completed packet (the Run packet
	// freelist); invoked after onDeliver.
	recycle func(*Packet)

	slotSamples    int64
	slotOccupied   int64
	loopOccupied   []int64
	circulations   int64 // ejection-miss re-circulations (diagnostics)
	injectedFlits  int64
	deliveredFlits int64
	droppedFlits   int64
}

// NewRing builds a simulator for a routerless topology. The topology must
// be fully connected for arbitrary traffic; unreachable packets cause
// Inject to panic, surfacing design bugs early.
func NewRing(t *topo.Topology, cfg RingConfig) *Ring {
	if cfg.EjectPorts < 1 || cfg.InjectPerCycle < 1 {
		panic("sim: RingConfig needs at least one inject and eject port")
	}
	n, loops := t.N(), t.Loops()
	r := &Ring{
		topo:         t,
		rt:           topo.BuildRoutingTable(t),
		cfg:          cfg,
		loopOff:      make([]int, len(loops)),
		loopLen:      make([]int, len(loops)),
		posOf:        make([]int32, len(loops)*n),
		srcQueue:     make([]queue[*injecting], n),
		extension:    make([]ringBuf[*flit], n),
		ejected:      make([]int, n),
		ejDirty:      make([]int32, 0, n),
		extActive:    newActiveSet(n),
		injActive:    newActiveSet(n),
		occ:          make([]int32, len(loops)),
		occSince:     make([]int, len(loops)),
		loopOccupied: make([]int64, len(loops)),
	}
	for i := range r.extension {
		r.extension[i] = newRingBuf[*flit](cfg.ExtensionBuffers)
	}
	for i := range r.posOf {
		r.posOf[i] = -1
	}
	longest := 0
	for li, l := range loops {
		r.loopOff[li], r.loopLen[li] = len(r.loopOf), l.Len()
		longest = max(longest, l.Len())
		for i, nd := range l.Nodes() {
			r.posOf[li*n+nd.ID(t.Cols())] = int32(i)
			r.loopOf = append(r.loopOf, int32(li))
		}
	}
	total := len(r.loopOf)
	r.slots = make([]*flit, total)
	r.liveSlots = int64(total)
	rows := 1
	for rows <= longest {
		rows <<= 1
	}
	r.words = (total + 63) / 64
	r.wheel, r.wheelMask = make([]uint64, rows*r.words), rows-1
	r.cacheRoutes()
	return r
}

// cacheRoutes flattens the routing table into the injection-path array.
func (r *Ring) cacheRoutes() {
	n := r.topo.N()
	if r.routeLoop == nil {
		r.routeLoop = make([]int32, n*n)
	}
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			r.routeLoop[s*n+d] = int32(r.rt.LoopID(s, d))
		}
	}
}

// schedule enters an arrival at global position g in cycle a.
func (r *Ring) schedule(a, g int) {
	r.wheel[(a&r.wheelMask)*r.words+g>>6] |= 1 << (g & 63)
}

// setOcc moves loop li's occupancy by delta, first banking the cycles the
// old value held for LoopUtilization.
func (r *Ring) setOcc(li int, delta int32) {
	old := r.occ[li]
	r.loopOccupied[li] += int64(old) * int64(r.cycle-r.occSince[li])
	r.occSince[li] = r.cycle
	r.occ[li] = old + delta
	r.occTotal += int64(delta)
	switch {
	case old == 0:
		r.activeLoops++
	case old+delta == 0:
		r.activeLoops--
	}
}

// injecting tracks a packet mid-injection at its source NI.
type injecting struct {
	pkt     *Packet
	loopIdx int
	sent    int // flits already placed on the ring
}

// Nodes implements Network.
func (r *Ring) Nodes() int { return r.topo.N() }

// Cycle implements Network.
func (r *Ring) Cycle() int { return r.cycle }

// InFlight implements Network.
func (r *Ring) InFlight() int { return r.inFlight }

// Inject implements Network: the packet joins its source queue and is
// placed onto its loop as slots pass by.
func (r *Ring) Inject(p *Packet) {
	li := int(r.routeLoop[p.Src*r.topo.N()+p.Dst])
	if li < 0 {
		panic(fmt.Sprintf("sim: no loop connects %d -> %d", p.Src, p.Dst))
	}
	p.remaining = p.NumFlits
	inj := r.injs.get()
	inj.pkt, inj.loopIdx = p, li
	r.srcQueue[p.Src].push(inj)
	r.injActive.add(p.Src)
	r.inFlight++
}

// Step implements Network. Per-cycle phases:
//  1. ejection — flits latched at their destination leave the ring,
//     bounded by EjectPorts; overflow parks in extension buffers, and
//     when those are full the flit re-circulates;
//  2. advance — every remaining flit moves one hop (never stalls);
//  3. injection — source NIs place queued flits into empty slots.
//
// Only events cost work: phase 1 visits this cycle's calendar entries,
// phase 2 is the rotating frame's implicit shift, and phases 0 and 3 visit
// only nodes with parked flits or queued packets. Arrivals are handled in
// ascending loop, then ascending position order, which is the order the
// per-slot walk (refRing in the tests) met them in: ejection ports,
// extension buffers, onDeliver and the packet freelist all observe it.
func (r *Ring) Step() {
	c := r.cycle
	// Reset the ejection-port counters dirtied last cycle.
	for _, n := range r.ejDirty {
		r.ejected[n] = 0
	}
	r.ejDirty = r.ejDirty[:0]

	// Phase 0: drain extension buffers into ejection ports first (they
	// arrived earliest), in ascending node order.
	for _, v := range r.extActive.list {
		n := int(v)
		ext := &r.extension[n]
		for ext.len() > 0 && r.ejected[n] < r.cfg.EjectPorts {
			r.finishFlit(ext.pop())
			r.bumpEject(n)
		}
	}

	// Phase 1: this cycle's arrivals. A flit with no ejection port and no
	// extension slot circulates again and arrives one loop length later.
	row := r.wheel[(c&r.wheelMask)*r.words:][:r.words]
	for w, set := range row {
		row[w] = 0
		for ; set != 0; set &= set - 1 {
			g := w<<6 | bits.TrailingZeros64(set)
			li := int(r.loopOf[g])
			off, l := r.loopOff[li], r.loopLen[li]
			// During cycle c the flit at slot index k sits at (k + c) mod L.
			k := (g - off - c) % l
			if k < 0 {
				k += l
			}
			f := r.slots[off+k]
			node := f.pkt.Dst
			eject := r.ejected[node] < r.cfg.EjectPorts
			if !eject && r.extension[node].len() >= r.cfg.ExtensionBuffers {
				r.circulations++
				r.schedule(c+l, g)
				continue
			}
			r.slots[off+k] = nil
			r.setOcc(li, -1)
			f.hops = c - f.born
			if eject {
				r.bumpEject(node)
				r.finishFlit(f)
			} else {
				r.extension[node].push(f)
				r.extActive.add(node)
			}
		}
	}

	// Phase 3: injection, only at nodes with queued packets. After this
	// cycle's implicit advance, position pos of loop li is slot index
	// (pos − c − 1) mod L.
	n := r.topo.N()
	for _, v := range r.injActive.list {
		src := int(v)
		budget := r.cfg.InjectPerCycle
		q := &r.srcQueue[src]
		for budget > 0 && q.len() > 0 {
			inj := q.front()
			li := inj.loopIdx
			l := r.loopLen[li]
			pos := int(r.posOf[li*n+src])
			k := (pos - c - 1) % l
			if k < 0 {
				k += l
			}
			if r.slots[r.loopOff[li]+k] != nil {
				break // ring traffic has priority; wait for a gap
			}
			f := r.flits.get()
			f.pkt, f.born = inj.pkt, c+1
			r.slots[r.loopOff[li]+k] = f
			r.setOcc(li, 1)
			dpos := int(r.posOf[li*n+inj.pkt.Dst])
			dist := dpos - pos
			if dist < 0 {
				dist += l
			}
			r.schedule(c+1+dist, r.loopOff[li]+dpos)
			r.injectedFlits++
			inj.sent++
			budget--
			if inj.sent == inj.pkt.NumFlits {
				q.pop()
				r.injs.put(inj)
			}
		}
	}

	// Utilization sampling from the occupancy counters: integer sums
	// identical to counting occupied slots every cycle.
	r.slotSamples += r.liveSlots
	r.slotOccupied += r.occTotal

	// Drop nodes whose extension buffers emptied and nodes whose source
	// queues ran dry.
	r.extActive.retain(func(n int32) bool { return r.extension[n].len() > 0 })
	r.injActive.retain(func(n int32) bool { return r.srcQueue[n].len() > 0 })

	r.cycle++
}

// bumpEject counts one ejection at node n this cycle, remembering the
// node so the next cycle resets only the counters actually used.
func (r *Ring) bumpEject(n int) {
	if r.ejected[n] == 0 {
		r.ejDirty = append(r.ejDirty, int32(n))
	}
	r.ejected[n]++
}

// finishFlit retires one flit at its destination and recycles it.
func (r *Ring) finishFlit(f *flit) {
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

// OnDeliver registers an observer invoked once per completed packet, for
// tracing and custom statistics. Pass nil to clear.
func (r *Ring) OnDeliver(fn func(*Packet)) { r.onDeliver = fn }

// swapRecycle implements recycler.
func (r *Ring) swapRecycle(fn func(*Packet)) func(*Packet) {
	prev := r.recycle
	r.recycle = fn
	return prev
}

// LinkUtilization implements Network.
func (r *Ring) LinkUtilization() float64 {
	if r.slotSamples == 0 {
		return 0
	}
	return float64(r.slotOccupied) / float64(r.slotSamples)
}

// Circulations returns the count of ejection-miss re-circulations, a
// diagnostic for undersized ejection resources.
func (r *Ring) Circulations() int64 { return r.circulations }

// InjectedFlits returns the number of flits placed onto rings so far.
func (r *Ring) InjectedFlits() int64 { return r.injectedFlits }

// DeliveredFlits returns the number of flits ejected at destinations.
func (r *Ring) DeliveredFlits() int64 { return r.deliveredFlits }

// BufferOccupancy returns the number of flits currently parked in
// extension buffers across all nodes, the ring model's only buffering
// beyond the loop slots themselves.
func (r *Ring) BufferOccupancy() int {
	n := 0
	for i := range r.extension {
		n += r.extension[i].len()
	}
	return n
}

// ActiveLoops returns the number of loops carrying at least one flit as
// of the last completed cycle.
func (r *Ring) ActiveLoops() int { return r.activeLoops }

// LoopUtilization returns the mean slot occupancy per loop, identifying
// hot rings for power analysis and placement diagnostics.
func (r *Ring) LoopUtilization() []float64 {
	out := make([]float64, len(r.loopLen))
	if r.cycle == 0 {
		return out
	}
	for li, occ := range r.loopOccupied {
		occ += int64(r.occ[li]) * int64(r.cycle-r.occSince[li])
		out[li] = float64(occ) / float64(int64(r.loopLen[li])*int64(r.cycle))
	}
	return out
}
