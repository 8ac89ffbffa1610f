package sim

import (
	"fmt"

	"routerless/internal/topo"
)

// FailLoop marks a loop as failed: a broken link anywhere on a
// unidirectional ring disables the whole ring, so routing is rebuilt to
// avoid it (§6.7's reliability discussion). Flits circulating on the
// failed loop are dropped (counted in DroppedFlits) and their packets can
// never complete; queued packets are re-routed onto surviving loops when
// possible and dropped otherwise. Whether the degraded network remains
// fully connected can be checked via Degraded().
func (r *Ring) FailLoop(idx int) {
	if idx < 0 || idx >= len(r.loopLen) {
		panic(fmt.Sprintf("sim: FailLoop index %d out of range", idx))
	}
	if r.failed == nil {
		r.failed = make([]bool, len(r.loopLen))
	}
	if r.failed[idx] {
		return
	}
	r.failed[idx] = true

	// Drop in-flight flits on the failed loop; their packets are lost.
	off := r.loopOff[idx]
	for k, f := range r.slots[off : off+r.loopLen[idx]] {
		if f == nil {
			continue
		}
		r.droppedFlits++
		if f.pkt.remaining > 0 {
			r.inFlight--
			f.pkt.remaining = -1 // failed marker; Done stays -1
		}
		r.slots[off+k] = nil
		r.setOcc(idx, -1)
		r.flits.put(f)
	}
	r.liveSlots -= int64(r.loopLen[idx])
	// Purge the dropped flits' arrivals from the calendar.
	for g := off; g < off+r.loopLen[idx]; g++ {
		for row := 0; row <= r.wheelMask; row++ {
			r.wheel[row*r.words+g>>6] &^= 1 << (g & 63)
		}
	}

	// Rebuild routing around the failure and refresh the injection cache.
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
			q.push(inj)
		}
	}
}

// Degraded returns the routing table currently in effect (reflecting any
// failed loops).
func (r *Ring) Degraded() *topo.RoutingTable { return r.rt }

// DroppedFlits returns the number of flits lost to loop failures.
func (r *Ring) DroppedFlits() int64 { return r.droppedFlits }
