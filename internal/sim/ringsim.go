package sim

import (
	"fmt"

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
	// DenseStep disables active-set sparse stepping: every loop and node
	// is walked every cycle, the pre-sparse behavior. Sparse stepping is
	// byte-identical (a skipped step is provably a no-op), so this knob
	// exists as the oracle for the dense-vs-sparse parity tests and for
	// before/after benchmarking, mirroring bruteGreedySearch.
	DenseStep bool
}

// DefaultRingConfig matches the paper's REC/DRL setup: single-flit
// injection/ejection links plus a small pool of extension buffers.
func DefaultRingConfig() RingConfig {
	return RingConfig{EjectPorts: 1, ExtensionBuffers: 4, InjectPerCycle: 1}
}

// flit is one in-flight flit on a loop.
type flit struct {
	pkt  *Packet
	tail bool
	hops int
}

// loopState is the conveyor of per-node flit buffers for one loop. slot[i]
// holds the flit currently latched at perimeter position i; every cycle all
// flits advance one position (single-cycle per hop — the defining
// routerless property: no stalls on the ring).
type loopState struct {
	loop  topo.Loop
	nodes []int // node IDs along traversal order
	// posOf[nodeID] = perimeter index, or -1.
	slot []*flit
	next []*flit
}

// Ring is the cycle-accurate routerless network simulator.
type Ring struct {
	topo  *topo.Topology
	rt    *topo.RoutingTable
	cfg   RingConfig
	loops []*loopState
	// posOf[loopIdx][nodeID] = perimeter index or -1.
	posOf [][]int

	// routeLoop/routeDist flatten the routing table by src*N+dst so the
	// injection path is two array reads (rebuilt by FailLoop).
	routeLoop []int32
	routeDist []int32

	// srcQueue[node] holds packets awaiting injection, each tracked by
	// flits remaining to inject.
	srcQueue []queue[*injecting]
	// extension[node] holds flits parked awaiting an ejection port.
	extension []ringBuf[*flit]

	// flits/injs recycle the per-flit and per-packet-in-queue records; in
	// steady state injection and delivery never allocate.
	flits pool[flit]
	injs  pool[injecting]

	// ejected is Step's per-cycle ejection-port scratch, hoisted here so
	// the forwarding path allocates nothing. Sparse stepping resets only
	// the entries dirtied last cycle (ejDirty); dense stepping zeroes the
	// whole array.
	ejected []int
	ejDirty []int32

	// Active-set state for sparse stepping (see Step). occ[i] counts the
	// occupied slots of loop i, maintained at every inject/eject/park/drop
	// site; loopActive is exactly the loops with occ > 0, extActive the
	// nodes with parked extension flits, injActive the nodes with queued
	// source packets. liveSlots caches the summed slot count of all
	// non-failed loops (the per-cycle slotSamples increment). FailLoop
	// bumps dirtyEpoch; the next Step rebuilds everything from scratch
	// when cleanEpoch lags, so mid-run failures keep the sets exact.
	occ        []int32
	loopActive activeSet
	extActive  activeSet
	injActive  activeSet
	liveSlots  int64
	dirtyEpoch uint64
	cleanEpoch uint64
	dense      bool

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
	r := &Ring{
		topo:      t,
		rt:        topo.BuildRoutingTable(t),
		cfg:       cfg,
		srcQueue:  make([]queue[*injecting], t.N()),
		extension: make([]ringBuf[*flit], t.N()),
		ejected:   make([]int, t.N()),
		ejDirty:   make([]int32, 0, t.N()),
		dense:     cfg.DenseStep,
	}
	for i := range r.extension {
		r.extension[i] = newRingBuf[*flit](cfg.ExtensionBuffers)
	}
	for _, l := range t.Loops() {
		ls := &loopState{
			loop: l,
			slot: make([]*flit, l.Len()),
			next: make([]*flit, l.Len()),
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
	r.occ = make([]int32, len(r.loops))
	r.loopActive = newActiveSet(len(r.loops))
	r.extActive = newActiveSet(t.N())
	r.injActive = newActiveSet(t.N())
	r.rebuildActiveSets()
	r.cacheRoutes()
	return r
}

// cacheRoutes flattens the routing table into the injection-path arrays.
func (r *Ring) cacheRoutes() {
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

// rebuildActiveSets recomputes the occupancy counters and active sets
// from the ground-truth slot/buffer/queue state. Called at construction
// and whenever FailLoop has dirtied the epoch: a failure drops flits,
// re-routes queued packets, and shrinks the live slot population, so one
// O(topology) rebuild is simpler to prove correct than patching every
// failure path incrementally.
func (r *Ring) rebuildActiveSets() {
	r.loopActive.clear()
	r.extActive.clear()
	r.injActive.clear()
	r.liveSlots = 0
	for li, ls := range r.loops {
		if li < len(r.failed) && r.failed[li] {
			r.occ[li] = 0
			continue
		}
		r.liveSlots += int64(len(ls.slot))
		n := int32(0)
		for _, f := range ls.slot {
			if f != nil {
				n++
			}
		}
		r.occ[li] = n
		if n > 0 {
			r.loopActive.add(li)
		}
	}
	for n := range r.extension {
		if r.extension[n].len() > 0 {
			r.extActive.add(n)
		}
	}
	for n := range r.srcQueue {
		if r.srcQueue[n].len() > 0 {
			r.injActive.add(n)
		}
	}
	r.cleanEpoch = r.dirtyEpoch
}

// injecting tracks a packet mid-injection at its source NI.
type injecting struct {
	pkt      *Packet
	loopIdx  int
	sent     int // flits already placed on the ring
	distance int // hops to destination on the chosen loop
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
	n := r.topo.N()
	li := int(r.routeLoop[p.Src*n+p.Dst])
	if li < 0 {
		panic(fmt.Sprintf("sim: no loop connects %d -> %d", p.Src, p.Dst))
	}
	p.remaining = p.NumFlits
	inj := r.injs.get()
	inj.pkt, inj.loopIdx, inj.distance = p, li, int(r.routeDist[p.Src*n+p.Dst])
	r.srcQueue[p.Src].push(inj)
	if !r.dense {
		r.injActive.add(p.Src)
	}
	r.inFlight++
}

// Step implements Network. Per-cycle phases:
//  1. ejection — flits latched at their destination leave the ring,
//     bounded by EjectPorts; overflow parks in extension buffers, and
//     when those are full the flit re-circulates;
//  2. advance — every remaining flit moves one hop (never stalls);
//  3. injection — source NIs place queued flits into empty slots.
//
// By default the cycle is *sparse*: only loops with occupied slots, nodes
// with parked extension flits, and nodes with pending injections are
// visited, so the per-cycle cost is proportional to activity rather than
// topology size. The invariant making this safe is that every skipped
// unit's step is provably a no-op (an empty loop ejects nothing, advances
// nothing, and swaps two all-nil arrays; an empty buffer or queue drains
// nothing), so sparse stepping is byte-identical to the dense walk —
// Results, events, interval stats, and latency histograms all match. The
// dense walk survives as denseStep behind RingConfig.DenseStep, the
// oracle the parity tests hold sparse stepping to.
func (r *Ring) Step() {
	if r.dense {
		r.denseStep()
		return
	}
	if r.cleanEpoch != r.dirtyEpoch {
		r.rebuildActiveSets()
	}
	// Reset the ejection-port counters dirtied last cycle.
	for _, n := range r.ejDirty {
		r.ejected[n] = 0
	}
	r.ejDirty = r.ejDirty[:0]

	// Phase 0: drain extension buffers into ejection ports first (they
	// arrived earliest). Only nodes with parked flits, in ascending node
	// order — the same order the dense walk visits them.
	for _, v := range r.extActive.list {
		n := int(v)
		ext := &r.extension[n]
		for ext.len() > 0 && r.ejected[n] < r.cfg.EjectPorts {
			r.finishFlit(ext.pop())
			r.bumpEject(n)
		}
	}

	// Phase 1+2: ejection decision and advance, only for loops carrying
	// flits, in ascending loop order (ejection ports are shared across
	// loops, so visit order is observable and must match the dense walk).
	// Slots are nilled as they are read, so after the walk the old slot
	// array is all-nil and becomes the next cycle's scratch — the all-nil
	// `next` invariant that lets empty loops skip clearing entirely.
	for _, v := range r.loopActive.list {
		li := int(v)
		ls := r.loops[li]
		for i, todo := 0, r.occ[li]; todo > 0; i++ {
			f := ls.slot[i]
			if f == nil {
				continue
			}
			todo--
			ls.slot[i] = nil
			node := ls.nodes[i]
			if f.pkt.Dst == node {
				if r.ejected[node] < r.cfg.EjectPorts {
					r.bumpEject(node)
					r.finishFlit(f)
					r.occ[li]--
					continue
				}
				if r.extension[node].len() < r.cfg.ExtensionBuffers {
					r.extension[node].push(f)
					r.extActive.add(node)
					r.occ[li]--
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

	// Phase 3: injection, only at nodes with queued packets.
	for _, v := range r.injActive.list {
		n := int(v)
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
			r.occ[inj.loopIdx]++
			r.loopActive.add(inj.loopIdx)
			r.injectedFlits++
			inj.sent++
			budget--
			if inj.sent == inj.pkt.NumFlits {
				q.pop()
				r.injs.put(inj)
			}
		}
	}

	// Utilization sampling from the occupancy counters: liveSlots is the
	// summed length of all non-failed loops, and occ[li] the flits loop li
	// carries after injection — integer sums identical to the dense
	// per-slot walk.
	r.slotSamples += r.liveSlots
	for _, v := range r.loopActive.list {
		occ := int64(r.occ[v])
		r.slotOccupied += occ
		r.loopOccupied[v] += occ
	}

	// Compact the active sets in place (order-preserving): drop loops
	// that drained, nodes whose extension buffers emptied, and nodes
	// whose source queues ran dry.
	w := 0
	for _, v := range r.loopActive.list {
		if r.occ[v] > 0 {
			r.loopActive.list[w] = v
			w++
		} else {
			r.loopActive.mark[v] = false
		}
	}
	r.loopActive.list = r.loopActive.list[:w]
	w = 0
	for _, v := range r.extActive.list {
		if r.extension[v].len() > 0 {
			r.extActive.list[w] = v
			w++
		} else {
			r.extActive.mark[v] = false
		}
	}
	r.extActive.list = r.extActive.list[:w]
	w = 0
	for _, v := range r.injActive.list {
		if r.srcQueue[v].len() > 0 {
			r.injActive.list[w] = v
			w++
		} else {
			r.injActive.mark[v] = false
		}
	}
	r.injActive.list = r.injActive.list[:w]

	r.cycle++
}

// bumpEject counts one ejection at node n this cycle, remembering the
// node so the next sparse cycle resets only the counters actually used.
func (r *Ring) bumpEject(n int) {
	if r.ejected[n] == 0 {
		r.ejDirty = append(r.ejDirty, int32(n))
	}
	r.ejected[n]++
}

// denseStep is the pre-sparse cycle: every loop slot and every node is
// walked unconditionally. Retained as the byte-identity oracle for
// sparse stepping (RingConfig.DenseStep) — TestSparseMatchesDense* hold
// the two paths to identical Results and interval streams.
func (r *Ring) denseStep() {
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
// of the last completed cycle — the units a sparse cycle actually steps.
// Dense mode computes it from the ground-truth slot state, so comparing
// the two modes' interval streams doubles as an occupancy-bookkeeping
// oracle.
func (r *Ring) ActiveLoops() int {
	if !r.dense {
		return r.loopActive.len()
	}
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

// LoopUtilization returns the mean slot occupancy per loop, identifying
// hot rings for power analysis and placement diagnostics.
func (r *Ring) LoopUtilization() []float64 {
	out := make([]float64, len(r.loops))
	if r.cycle == 0 {
		return out
	}
	for li, occ := range r.loopOccupied {
		out[li] = float64(occ) / float64(int64(r.loops[li].loop.Len())*int64(r.cycle))
	}
	return out
}
