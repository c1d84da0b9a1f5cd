package noc

// DeliverFunc is invoked when a packet's tail flit has been ejected and the
// packet reassembled at its destination NIC.
type DeliverFunc func(p *Packet, now uint64)

// GateFunc models the finite buffering of the node interface: a reassembled
// packet is only handed to the sink when the gate admits it. A false return
// leaves the packet pending at the NIC; once a class's pending packets reach
// EjectPendingCap the routers stop granting that class's flits to the local
// port, backing traffic up into the network (the paper's "queued at the
// STT-RAM module interface, possibly at the network interface").
type GateFunc func(p *Packet, now uint64) bool

// EjectPendingCap is the per-class packet capacity of the node interface.
const EjectPendingCap = 2

// stream is a packet currently being injected flit-by-flit into the local
// input port of the NIC's router.
type stream struct {
	pkt  *Packet
	next int // next flit sequence number to inject
	vc   int // injection VC granted on the local input port
}

// arrival is one ejected flit of pkt, due at the NIC at cycle at.
type arrival struct {
	pkt *Packet
	at  uint64
}

// NIC is a node's network interface: per-class injection queues feeding the
// router's local input port (with ordinary VC allocation and credit flow),
// and an ejection side that reassembles wormhole flits back into packets.
// Injection queues are unbounded — the paper queues excess requests "at the
// network interface", and that queuing time is part of measured latency.
type NIC struct {
	id     NodeID
	net    *Network
	router *Router
	inj    *outLink

	queues  [NumClasses][]*Packet
	streams []stream
	rr      int

	inbox   []arrival
	deliver DeliverFunc
	gate    GateFunc
	blocked [NumClasses][]*Packet // reassembled but refused by the gate
}

// ID returns the NIC's node.
func (n *NIC) ID() NodeID { return n.id }

// SetDeliver registers the packet sink for this node.
func (n *NIC) SetDeliver(fn DeliverFunc) { n.deliver = fn }

// SetGate registers the node-interface admission check.
func (n *NIC) SetGate(fn GateFunc) { n.gate = fn }

// canEject reports whether the router may eject more flits of this class.
func (n *NIC) canEject(c Class) bool {
	return len(n.blocked[c]) < EjectPendingCap
}

// QueuedPackets returns the number of packets waiting to begin injection.
func (n *NIC) QueuedPackets() int {
	total := 0
	for c := range n.queues {
		total += len(n.queues[c])
	}
	return total
}

// enqueue appends a packet for injection.
func (n *NIC) enqueue(p *Packet) {
	n.queues[p.Class] = append(n.queues[p.Class], p)
	n.net.markNICActive(n.id)
}

// receive buffers an ejected flit of p; the packet is delivered when all its
// flits have arrived.
func (n *NIC) receive(p *Packet, at uint64) {
	n.inbox = append(n.inbox, arrival{pkt: p, at: at})
	n.net.markNICActive(n.id)
}

// idle reports whether tick would be a no-op: nothing queued for injection,
// no active wormhole streams, no undelivered ejection flits, and no packets
// blocked at the gate. The network skips idle NICs entirely (sparse ticking).
func (n *NIC) idle() bool {
	if len(n.streams) != 0 || len(n.inbox) != 0 {
		return false
	}
	for c := range n.queues {
		if len(n.queues[c]) != 0 || len(n.blocked[c]) != 0 {
			return false
		}
	}
	return true
}

// deliverPhase processes ejections due at cycle now: gate retries first, then
// inbox reassembly. Delivery sinks run simulator code, which may inject new
// packets into any NIC.
func (n *NIC) deliverPhase(now uint64) {
	n.retryBlocked(now)
	n.eject(now)
}

// injectPhase grants injection VCs and sends up to one flit into this NIC's
// own router.
func (n *NIC) injectPhase(now uint64) {
	n.startStreams()
	n.injectOne(now)
}

// retryBlocked re-offers gated packets to the sink, preserving order.
func (n *NIC) retryBlocked(now uint64) {
	for c := range n.blocked {
		q := n.blocked[c]
		for len(q) > 0 && n.gate(q[0], now) {
			n.finish(q[0], now)
			copy(q, q[1:])
			q = q[:len(q)-1]
		}
		n.blocked[c] = q
	}
}

// finish completes delivery of a packet at cycle now.
func (n *NIC) finish(p *Packet, now uint64) {
	p.Ejected = now
	n.net.onDelivered(p, now)
	if n.deliver != nil {
		n.deliver(p, now)
	}
}

// eject consumes inbox arrivals that are due and reassembles packets.
func (n *NIC) eject(now uint64) {
	kept := n.inbox[:0]
	for _, a := range n.inbox {
		if a.at > now {
			kept = append(kept, a)
			continue
		}
		p := a.pkt
		p.arrived++
		if int(p.arrived) == p.SizeFlits {
			if n.gate != nil && (len(n.blocked[p.Class]) > 0 || !n.gate(p, now)) {
				n.blocked[p.Class] = append(n.blocked[p.Class], p)
				continue
			}
			n.finish(p, a.at)
		}
	}
	n.inbox = kept
}

// startStreams grants injection VCs to queued packets while free VCs of the
// right class exist on the local input port.
func (n *NIC) startStreams() {
	for c := Class(0); c < NumClasses; c++ {
		for len(n.queues[c]) > 0 {
			v := n.inj.allocVC(c, n.net)
			if v < 0 {
				break
			}
			p := n.queues[c][0]
			copy(n.queues[c], n.queues[c][1:])
			n.queues[c] = n.queues[c][:len(n.queues[c])-1]
			n.streams = append(n.streams, stream{pkt: p, vc: v})
		}
	}
}

// injectOne sends at most one flit this cycle (the local port is a single
// 128-bit channel), picking among active streams round-robin.
func (n *NIC) injectOne(now uint64) {
	if len(n.streams) == 0 {
		return
	}
	for i := 0; i < len(n.streams); i++ {
		idx := (n.rr + i) % len(n.streams)
		s := &n.streams[idx]
		if n.inj.credits[s.vc] <= 0 {
			continue
		}
		p := s.pkt
		n.inj.credits[s.vc]--
		// One cycle to cross into the router buffer.
		n.router.acceptFlit(PortLocal, s.vc, p, s.next, now+1, now)
		n.net.markRouterActive(n.id)
		n.net.lastMove = now
		s.next++
		if s.next == p.SizeFlits {
			n.inj.tailSent[s.vc] = true
			n.streams = append(n.streams[:idx], n.streams[idx+1:]...)
			n.rr = idx
		} else {
			n.rr = idx + 1
		}
		return
	}
}
