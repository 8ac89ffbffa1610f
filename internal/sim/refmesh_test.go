package sim

import (
	"routerless/internal/mesh"
	"routerless/internal/topo"
)

// refMesh is the reference mesh simulator the parity suite and the fuzz
// targets hold Mesh to: the dense walk over the *router/*inputPort/*vcState
// pointer tree Mesh ran before its state moved into flat per-router
// arrays, kept verbatim apart from renames. Every router runs ejection,
// switch allocation and injection every cycle, arbitration recomputes each
// candidate's route from its destination, and the pipe is filtered whole
// every cycle.
type refMesh struct {
	rows, cols  int
	cfg         MeshConfig
	routers     []*refRouter
	pipe        []refDelivery
	pipeScratch []refDelivery
	cands       []cand

	flits pool[refMeshFlit]
	// onDeliver, when set, observes each completed packet.
	onDeliver func(*Packet)
	recycle   func(*Packet)

	srcQueue []queue[*Packet]
	srcSent  []int
	srcVC    []int

	cycle     int
	inFlight  int
	util      int64
	utilSamps int64

	injectedFlits  int64
	deliveredFlits int64
}

type refMeshFlit struct {
	pkt  *Packet
	head bool
	tail bool
	hops int
	dst  topo.Node
}

type refVCState struct {
	fifo    ringBuf[*refMeshFlit]
	active  bool
	outPort mesh.Port
	outVC   int
}

type refInputPort struct {
	vcs []*refVCState
}

type refRouter struct {
	node   topo.Node
	inputs [mesh.NumPorts]*refInputPort
	// credits[port][vc] = free buffer slots at the downstream input.
	credits [mesh.NumPorts][]int
	// downVCBusy[port][vc] = downstream VC currently owned by a packet.
	downVCBusy [mesh.NumPorts][]bool
}

type refDelivery struct {
	at     int // arrival cycle
	flit   *refMeshFlit
	toNode int
	toPort mesh.Port
	toVC   int
}

func newRefMesh(rows, cols int, cfg MeshConfig) *refMesh {
	if cfg.VCs < 1 || cfg.BufferFlits < 1 || cfg.RouterDelay < 0 {
		panic("sim: invalid MeshConfig")
	}
	m := &refMesh{
		rows: rows, cols: cols, cfg: cfg,
		srcQueue: make([]queue[*Packet], rows*cols),
		srcSent:  make([]int, rows*cols),
		srcVC:    make([]int, rows*cols),
	}
	for id := 0; id < rows*cols; id++ {
		r := &refRouter{node: topo.NodeFromID(id, cols)}
		for p := mesh.Port(0); p < mesh.NumPorts; p++ {
			ip := &refInputPort{}
			for v := 0; v < cfg.VCs; v++ {
				ip.vcs = append(ip.vcs, &refVCState{fifo: newRingBuf[*refMeshFlit](cfg.BufferFlits)})
			}
			r.inputs[p] = ip
			r.credits[p] = make([]int, cfg.VCs)
			r.downVCBusy[p] = make([]bool, cfg.VCs)
			for v := 0; v < cfg.VCs; v++ {
				r.credits[p][v] = cfg.BufferFlits
			}
		}
		m.routers = append(m.routers, r)
	}
	for p := mesh.Port(0); p < mesh.NumPorts; p++ {
		for v := 0; v < cfg.VCs; v++ {
			m.cands = append(m.cands, cand{p, v})
		}
	}
	return m
}

func (m *refMesh) Nodes() int    { return m.rows * m.cols }
func (m *refMesh) Cycle() int    { return m.cycle }
func (m *refMesh) InFlight() int { return m.inFlight }

func (m *refMesh) Inject(p *Packet) {
	p.remaining = p.NumFlits
	m.srcQueue[p.Src].push(p)
	m.inFlight++
}

// Step is the dense cycle: every router runs every phase every cycle.
func (m *refMesh) Step() {
	keep := m.pipeScratch[:0]
	for _, d := range m.pipe {
		if d.at > m.cycle {
			keep = append(keep, d)
			continue
		}
		rt := m.routers[d.toNode]
		rt.inputs[d.toPort].vcs[d.toVC].fifo.push(d.flit)
	}
	m.pipeScratch = m.pipe[:0]
	m.pipe = keep

	// Phase 2: ejection — each router sinks up to one flit per cycle from
	// input VCs holding flits destined here.
	for id, rt := range m.routers {
		m.ejectOne(id, rt)
	}

	// Phase 3: route computation + VC allocation + switch allocation +
	// traversal, one flit per output port, one per input VC.
	off := m.cycle % len(m.cands)
	for id, rt := range m.routers {
		m.switchAlloc(id, rt, off)
	}

	// Phase 4: NI injection into the Local input port.
	for id := range m.routers {
		m.injectOne(id)
	}

	m.utilSamps += int64(2 * m.Nodes()) // rough per-node link pair sample
	m.util += int64(len(m.pipe))
	m.cycle++
}

func (m *refMesh) ejectOne(id int, rt *refRouter) {
	for p := mesh.Port(0); p < mesh.NumPorts; p++ {
		for v, vc := range rt.inputs[p].vcs {
			if vc.fifo.len() == 0 {
				continue
			}
			f := vc.fifo.front()
			if f.dst.ID(m.cols) != id {
				continue
			}
			vc.fifo.pop()
			if p != mesh.Local {
				m.creditReturnVC(id, p, v)
			}
			m.finish(f)
			return
		}
	}
}

func (m *refMesh) finish(f *refMeshFlit) {
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

func (m *refMesh) switchAlloc(id int, rt *refRouter, off int) {
	usedOut := [mesh.NumPorts]bool{}
	cands := m.cands
	for k := 0; k < len(cands); k++ {
		c := cands[(k+off)%len(cands)]
		vc := rt.inputs[c.p].vcs[c.vc]
		if vc.fifo.len() == 0 {
			continue
		}
		f := vc.fifo.front()
		if f.dst.ID(m.cols) == id {
			continue // ejection handled separately
		}
		outPort := mesh.OutputPort(rt.node, f.dst)
		if usedOut[outPort] {
			continue
		}
		// VC allocation for head flits.
		if f.head && !vc.active {
			ov := m.allocVC(rt, outPort)
			if ov < 0 {
				continue // no downstream VC free
			}
			vc.active = true
			vc.outPort = outPort
			vc.outVC = ov
		}
		if !vc.active {
			continue
		}
		if vc.outPort != outPort {
			outPort = vc.outPort // wormhole: follow the head's route
			if usedOut[outPort] {
				continue
			}
		}
		if rt.credits[outPort][vc.outVC] == 0 {
			continue // downstream buffer full
		}
		rt.credits[outPort][vc.outVC]--
		vc.fifo.pop()
		if c.p != mesh.Local {
			m.creditReturnVC(id, c.p, c.vc)
		}
		next, ok := mesh.Neighbor(rt.node, outPort, m.rows, m.cols)
		if !ok {
			panic("sim: mesh route exits grid")
		}
		f.hops++
		m.pipe = append(m.pipe, refDelivery{
			at:     m.cycle + m.cfg.RouterDelay + 1,
			flit:   f,
			toNode: next.ID(m.cols),
			toPort: mesh.Opposite(outPort),
			toVC:   vc.outVC,
		})
		usedOut[outPort] = true
		if f.tail {
			rt.downVCBusy[outPort][vc.outVC] = false
			vc.active = false
		}
	}
}

func (m *refMesh) allocVC(rt *refRouter, outPort mesh.Port) int {
	for v := 0; v < m.cfg.VCs; v++ {
		if !rt.downVCBusy[outPort][v] {
			rt.downVCBusy[outPort][v] = true
			return v
		}
	}
	return -1
}

func (m *refMesh) creditReturnVC(id int, p mesh.Port, vcIdx int) {
	up, ok := mesh.Neighbor(m.routers[id].node, p, m.rows, m.cols)
	if !ok {
		return
	}
	upRt := m.routers[up.ID(m.cols)]
	op := mesh.Opposite(p)
	if upRt.credits[op][vcIdx] < m.cfg.BufferFlits {
		upRt.credits[op][vcIdx]++
	}
}

func (m *refMesh) injectOne(id int) {
	q := &m.srcQueue[id]
	if q.len() == 0 {
		return
	}
	rt := m.routers[id]
	p := q.front()
	best, bestFree := -1, 0
	if m.srcSent[id] > 0 {
		v := m.srcVC[id]
		best = v
		bestFree = m.cfg.BufferFlits - rt.inputs[mesh.Local].vcs[v].fifo.len()
	} else {
		for v, vc := range rt.inputs[mesh.Local].vcs {
			free := m.cfg.BufferFlits - vc.fifo.len()
			if free > bestFree {
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
	f.dst = topo.NodeFromID(p.Dst, m.cols)
	if f.head {
		m.srcVC[id] = best
	}
	rt.inputs[mesh.Local].vcs[best].fifo.push(f)
	m.injectedFlits++
	m.srcSent[id]++
	if m.srcSent[id] == p.NumFlits {
		q.pop()
		m.srcSent[id] = 0
	}
}

func (m *refMesh) InjectedFlits() int64  { return m.injectedFlits }
func (m *refMesh) DeliveredFlits() int64 { return m.deliveredFlits }

func (m *refMesh) BufferOccupancy() int {
	n := 0
	for _, rt := range m.routers {
		for _, ip := range rt.inputs {
			for _, vc := range ip.vcs {
				n += vc.fifo.len()
			}
		}
	}
	return n
}

// ActiveRouters counts the routers with buffered flits or queued source
// packets from the FIFO and queue state itself, the ground truth Mesh's
// active set is compared against.
func (m *refMesh) ActiveRouters() int {
	n := 0
	for id, rt := range m.routers {
		if m.srcQueue[id].len() > 0 {
			n++
			continue
		}
	scan:
		for _, ip := range rt.inputs {
			for _, vc := range ip.vcs {
				if vc.fifo.len() > 0 {
					n++
					break scan
				}
			}
		}
	}
	return n
}

func (m *refMesh) LinkUtilization() float64 {
	if m.utilSamps == 0 {
		return 0
	}
	return float64(m.util) / float64(m.utilSamps)
}

func (m *refMesh) swapRecycle(fn func(*Packet)) func(*Packet) {
	prev := m.recycle
	m.recycle = fn
	return prev
}
