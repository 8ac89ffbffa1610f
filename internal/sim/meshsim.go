package sim

import (
	"math/bits"

	"routerless/internal/mesh"
	"routerless/internal/topo"
)

// MeshConfig parameterizes the router-based mesh model, matching the
// paper's setup (§5): 2 VCs per link, 4-flit input buffers, and a router
// pipeline depth of 2 (Mesh-2), 1 (Mesh-1) or 0 (Mesh-0, the "ideal"
// router with only link/contention delays).
type MeshConfig struct {
	VCs         int // at most maxMeshVCs
	BufferFlits int
	RouterDelay int // pipeline cycles per router
}

// maxMeshVCs bounds MeshConfig.VCs so that a router's input VCs fit one
// 64-bit mask.
const maxMeshVCs = 64 / int(mesh.NumPorts)

// MeshN returns the paper's Mesh-N configuration (N = router delay).
func MeshN(delay int) MeshConfig {
	return MeshConfig{VCs: 2, BufferFlits: 4, RouterDelay: delay}
}

// meshFlit is a flit inside the mesh network. out is its output port at
// the router whose input VC holds it (Local: eject here), computed when
// the flit lands there.
type meshFlit struct {
	pkt  *Packet
	head bool
	tail bool
	hops int
	dst  topo.Node
	out  mesh.Port
}

// vcState is one virtual channel at one input port. The FIFO is a fixed
// ring buffer: credit flow control bounds its occupancy at BufferFlits, so
// it never allocates after construction.
type vcState struct {
	fifo ringBuf[*meshFlit]
	// allocated output for the packet currently using this VC
	// (wormhole: decided at the head flit, held until the tail leaves).
	active  bool
	outPort mesh.Port
	outVC   int
}

// delivery is a flit in transit through the router pipeline + link.
type delivery struct {
	at     int // arrival cycle
	flit   *meshFlit
	toNode int // destination router node ID
	toVC   int // input VC index at the destination router
}

// cand is one (input port, VC) switch-arbitration candidate.
type cand struct {
	p  mesh.Port
	vc int
}

// Mesh is the cycle-accurate router-based mesh simulator.
//
// Router state lives in flat arrays. A router's input VCs are numbered
// port*VCs+vc, so vcs[id*nvc+b] is VC b of router id, and credits and
// downVCBusy for output port p, downstream VC v sit at id*nvc+p*VCs+v.
// busy[id] has bit b set exactly when VC b of router id holds a flit.
type Mesh struct {
	rows, cols int
	cfg        MeshConfig
	nvc        int
	nodes      []topo.Node
	// nbr[id*NumPorts+p] is the router beyond port p of router id, or -1.
	nbr        []int32
	vcs        []vcState
	credits    []int32
	downVCBusy []bool
	busy       []uint64
	// pipe holds flits traversing pipeline+link. Every delivery takes the
	// same delay, so arrival cycles rise along the queue and landing pops
	// a prefix.
	pipe queue[delivery]

	// cands[b] names input VC b; the shape is identical for all routers.
	cands []cand

	// flits recycles meshFlit records; steady-state injection and
	// delivery never allocate.
	flits pool[meshFlit]
	// onDeliver, when set, observes each completed packet; recycle
	// reclaims it afterwards (the Run freelist).
	onDeliver func(*Packet)
	recycle   func(*Packet)

	srcQueue []queue[*Packet]
	srcSent  []int // flits of head packet already injected
	srcVC    []int // local VC chosen for the head packet mid-injection

	// active is exactly the routers with buffered flits or queued source
	// packets, ascending — the only routers whose ejection, switch and
	// injection phases are not no-ops.
	active activeSet

	cycle     int
	inFlight  int
	util      int64
	utilSamps int64

	injectedFlits  int64
	deliveredFlits int64
}

// NewMesh builds a rows×cols mesh of VC wormhole routers.
func NewMesh(rows, cols int, cfg MeshConfig) *Mesh {
	if cfg.VCs < 1 || cfg.VCs > maxMeshVCs || cfg.BufferFlits < 1 || cfg.RouterDelay < 0 {
		panic("sim: invalid MeshConfig")
	}
	n, nvc := rows*cols, int(mesh.NumPorts)*cfg.VCs
	m := &Mesh{
		rows: rows, cols: cols, cfg: cfg, nvc: nvc,
		nodes:      make([]topo.Node, n),
		nbr:        make([]int32, n*int(mesh.NumPorts)),
		vcs:        make([]vcState, n*nvc),
		credits:    make([]int32, n*nvc),
		downVCBusy: make([]bool, n*nvc),
		busy:       make([]uint64, n),
		srcQueue:   make([]queue[*Packet], n),
		srcSent:    make([]int, n),
		srcVC:      make([]int, n),
		active:     newActiveSet(n),
	}
	back := make([]*meshFlit, n*nvc*cfg.BufferFlits)
	for g := range m.vcs {
		m.vcs[g].fifo.buf = back[g*cfg.BufferFlits : (g+1)*cfg.BufferFlits : (g+1)*cfg.BufferFlits]
		m.credits[g] = int32(cfg.BufferFlits)
	}
	for id := range m.nodes {
		m.nodes[id] = topo.NodeFromID(id, cols)
		for p := mesh.Port(0); p < mesh.NumPorts; p++ {
			m.nbr[id*int(mesh.NumPorts)+int(p)] = -1
			if nb, ok := mesh.Neighbor(m.nodes[id], p, rows, cols); ok {
				m.nbr[id*int(mesh.NumPorts)+int(p)] = int32(nb.ID(cols))
			}
		}
	}
	for p := mesh.Port(0); p < mesh.NumPorts; p++ {
		for v := 0; v < cfg.VCs; v++ {
			m.cands = append(m.cands, cand{p, v})
		}
	}
	return m
}

// Nodes implements Network.
func (m *Mesh) Nodes() int { return m.rows * m.cols }

// Cycle implements Network.
func (m *Mesh) Cycle() int { return m.cycle }

// InFlight implements Network.
func (m *Mesh) InFlight() int { return m.inFlight }

// Inject implements Network.
func (m *Mesh) Inject(p *Packet) {
	p.remaining = p.NumFlits
	m.srcQueue[p.Src].push(p)
	m.active.add(p.Src)
	m.inFlight++
}

// Step implements Network. Phases: deliver pipelined flits into downstream
// buffers; ejection, then switch allocation + traversal, then NI
// injection at every active router, each phase in ascending router order
// (switch traversal returns credits upstream and appends to the shared
// pipe, so the order is observable).
//
// Idle routers are skipped: ejection, switch allocation and injection at a
// router with no buffered flit and no queued packet are no-ops. Inside a
// router the busy mask visits only non-empty VCs, in the order the full
// (port, VC) scan met them. Switch arbitration starts at a rotating
// offset derived from the cycle counter.
func (m *Mesh) Step() {
	// Phase 1: land flits whose pipeline+link delay elapsed, activating
	// the receiving router.
	for m.pipe.len() > 0 && m.pipe.front().at <= m.cycle {
		d := m.pipe.pop()
		d.flit.out = mesh.OutputPort(m.nodes[d.toNode], d.flit.dst)
		m.push(d.toNode, d.toVC, d.flit)
		m.active.add(d.toNode)
	}

	// Phases 2-4 visit only active routers. No additions can occur
	// mid-sweep: landing happened above, traversal schedules arrivals at
	// least one cycle out, and injection only touches the router's own
	// buffers — so the list is stable and removals wait for retain.
	list := m.active.list
	off := m.cycle % m.nvc
	for _, v := range list {
		m.ejectOne(int(v))
	}
	for _, v := range list {
		m.switchAlloc(int(v), off)
	}
	for _, v := range list {
		m.injectOne(int(v))
	}

	// Drop routers that went fully quiescent.
	m.active.retain(func(id int32) bool { return m.busy[id] != 0 || m.srcQueue[id].len() > 0 })

	m.utilSamps += int64(2 * m.Nodes()) // rough per-node link pair sample
	m.util += int64(m.pipe.len())
	m.cycle++
}

// push appends f to input VC b of router id.
func (m *Mesh) push(id, b int, f *meshFlit) {
	m.vcs[id*m.nvc+b].fifo.push(f)
	m.busy[id] |= 1 << b
}

// pop removes the head flit of input VC b of router id and returns its
// credit upstream.
func (m *Mesh) pop(id, b int) *meshFlit {
	fifo := &m.vcs[id*m.nvc+b].fifo
	f := fifo.pop()
	if fifo.len() == 0 {
		m.busy[id] &^= 1 << b
	}
	if c := m.cands[b]; c.p != mesh.Local {
		m.creditReturnVC(id, c.p, c.vc)
	}
	return f
}

// ejectOne sinks one destination flit at router id: the first non-empty
// VC, in (port, VC) order, whose head flit is destined here.
func (m *Mesh) ejectOne(id int) {
	for mask := m.busy[id]; mask != 0; mask &= mask - 1 {
		b := bits.TrailingZeros64(mask)
		if m.vcs[id*m.nvc+b].fifo.front().out != mesh.Local {
			continue
		}
		// Wormhole ordering: the whole packet drains through this VC
		// one flit per cycle.
		m.finish(m.pop(id, b))
		return
	}
}

// finish retires a delivered flit and recycles it.
func (m *Mesh) finish(f *meshFlit) {
	p, hops := f.pkt, f.hops
	m.flits.put(f)
	p.remaining--
	m.deliveredFlits++
	if hops > p.Hops {
		p.Hops = hops
	}
	if p.remaining == 0 {
		p.Done = m.cycle
		m.inFlight--
		if m.onDeliver != nil {
			m.onDeliver(p)
		}
		if m.recycle != nil {
			m.recycle(p)
		}
	}
}

// swapRecycle implements recycler.
func (m *Mesh) swapRecycle(fn func(*Packet)) func(*Packet) {
	prev := m.recycle
	m.recycle = fn
	return prev
}

// switchAlloc performs routing, VC allocation and switch traversal for
// router id: at most one flit leaves per output port per cycle. The
// non-empty VCs are visited from the rotating offset off upward, then
// from 0 up to off. Each VC is visited once and only the visited VC is
// popped, so the mask read up front stays exact for the rest of the walk.
func (m *Mesh) switchAlloc(id, off int) {
	var usedOut [mesh.NumPorts]bool
	mask := m.busy[id]
	hi := mask >> off << off
	for _, set := range [2]uint64{hi, mask &^ hi} {
		for ; set != 0; set &= set - 1 {
			m.traverse(id, bits.TrailingZeros64(set), &usedOut)
		}
	}
}

// traverse tries to send the head flit of input VC b of router id.
func (m *Mesh) traverse(id, b int, usedOut *[mesh.NumPorts]bool) {
	vc := &m.vcs[id*m.nvc+b]
	f := vc.fifo.front()
	outPort := f.out
	if outPort == mesh.Local || usedOut[outPort] {
		return // ejection is handled separately
	}
	// VC allocation for head flits.
	if f.head && !vc.active {
		ov := m.allocVC(id, outPort)
		if ov < 0 {
			return // no downstream VC free
		}
		vc.active = true
		vc.outPort = outPort
		vc.outVC = ov
	}
	if !vc.active {
		return // body flit before its head allocated (shouldn't happen)
	}
	if vc.outPort != outPort {
		outPort = vc.outPort // wormhole: follow the head's route
		if usedOut[outPort] {
			return
		}
	}
	credit := id*m.nvc + int(outPort)*m.cfg.VCs + vc.outVC
	if m.credits[credit] == 0 {
		return // downstream buffer full
	}
	// Traverse: consume credit, schedule arrival after pipeline+link.
	m.credits[credit]--
	outVC := vc.outVC
	if f.tail {
		// Release the downstream VC for reallocation once the tail has
		// left this router.
		m.downVCBusy[credit] = false
		vc.active = false
	}
	m.pop(id, b)
	next := m.nbr[id*int(mesh.NumPorts)+int(outPort)]
	if next < 0 {
		panic("sim: mesh route exits grid")
	}
	f.hops++
	m.pipe.push(delivery{
		at:     m.cycle + m.cfg.RouterDelay + 1,
		flit:   f,
		toNode: int(next),
		toVC:   int(mesh.Opposite(outPort))*m.cfg.VCs + outVC,
	})
	usedOut[outPort] = true
}

// allocVC finds a free downstream VC on outPort of router id.
func (m *Mesh) allocVC(id int, outPort mesh.Port) int {
	base := id*m.nvc + int(outPort)*m.cfg.VCs
	for v := 0; v < m.cfg.VCs; v++ {
		if !m.downVCBusy[base+v] {
			m.downVCBusy[base+v] = true
			return v
		}
	}
	return -1
}

// creditReturnVC returns a credit for a specific (input port, VC) of
// router id to its upstream neighbour.
func (m *Mesh) creditReturnVC(id int, p mesh.Port, vcIdx int) {
	up := m.nbr[id*int(mesh.NumPorts)+int(p)]
	if up < 0 {
		return
	}
	c := &m.credits[int(up)*m.nvc+int(mesh.Opposite(p))*m.cfg.VCs+vcIdx]
	if *c < int32(m.cfg.BufferFlits) {
		*c++
	}
}

// injectOne moves flits of the head packet at node id's NI into the Local
// input port, one flit per cycle, respecting local buffer capacity.
func (m *Mesh) injectOne(id int) {
	q := &m.srcQueue[id]
	if q.len() == 0 {
		return
	}
	p := q.front()
	// Local-port VCs are numbered 0..VCs-1. Head flits need a VC whose
	// fifo can take the whole packet progressively; use the emptiest.
	local := m.vcs[id*m.nvc : id*m.nvc+m.cfg.VCs]
	best, bestFree := -1, 0
	if m.srcSent[id] > 0 {
		// Keep packets on a single local VC: body flits must follow the
		// head, so while mid-injection stick to the chosen VC.
		best = m.srcVC[id]
		bestFree = m.cfg.BufferFlits - local[best].fifo.len()
	} else {
		for v := range local {
			if free := m.cfg.BufferFlits - local[v].fifo.len(); free > bestFree {
				best, bestFree = v, free
			}
		}
	}
	if best < 0 || bestFree == 0 {
		return
	}
	f := m.flits.get()
	f.pkt = p
	f.head = m.srcSent[id] == 0
	f.tail = m.srcSent[id] == p.NumFlits-1
	f.dst = m.nodes[p.Dst]
	f.out = mesh.OutputPort(m.nodes[id], f.dst)
	if f.head {
		m.srcVC[id] = best
	}
	m.push(id, best, f)
	m.injectedFlits++
	m.srcSent[id]++
	if m.srcSent[id] == p.NumFlits {
		q.pop()
		m.srcSent[id] = 0
	}
}

// InjectedFlits returns the number of flits placed into local input VCs.
func (m *Mesh) InjectedFlits() int64 { return m.injectedFlits }

// DeliveredFlits returns the number of flits ejected at destinations.
func (m *Mesh) DeliveredFlits() int64 { return m.deliveredFlits }

// BufferOccupancy returns the number of flits currently held in input-VC
// FIFOs across all routers (flits in the pipeline registers excluded), the
// per-interval congestion probe for the telemetry layer.
func (m *Mesh) BufferOccupancy() int {
	n := 0
	for g := range m.vcs {
		n += m.vcs[g].fifo.len()
	}
	return n
}

// ActiveRouters returns the number of routers with buffered flits or
// queued source packets as of the last completed cycle — the units a
// cycle actually steps.
func (m *Mesh) ActiveRouters() int { return m.active.len() }

// LinkUtilization implements Network: mean in-transit flits per link
// sample; a coarse activity factor for the power model.
func (m *Mesh) LinkUtilization() float64 {
	if m.utilSamps == 0 {
		return 0
	}
	return float64(m.util) / float64(m.utilSamps)
}
