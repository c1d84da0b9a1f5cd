package noc

import (
	"fmt"
	"math/bits"
)

// PriorityHold marks a packet that must not be served at all this cycle:
// the paper's parent routers hold requests to busy banks in the router
// buffers so they land just as the bank frees (Section 3.5), rather than
// merely losing arbitration.
const PriorityHold = 1 << 30

// Prioritizer is the hook through which the STT-RAM-aware arbitration of
// internal/core plugs into the router's VA and SA stages. A nil Prioritizer
// yields the paper's baseline: plain round-robin arbitration.
type Prioritizer interface {
	// Priority classifies packet p competing for arbitration at router `at`
	// in cycle now. Lower values win; equal values fall back to round-robin.
	// The baseline returns 0 for everything; the bank-aware policy returns 1
	// ("delay me") for requests headed to busy child banks.
	Priority(at NodeID, p *Packet, now uint64) int
	// OnForward is invoked when the header flit of packet p is granted the
	// switch at router `at` (i.e. the packet is being forwarded). Parent
	// routers use it to charge their child-bank busy tables and to apply
	// window-based timestamps.
	OnForward(at NodeID, p *Packet, now uint64)
}

// vcState is one input virtual channel. A VC holds the flits of one packet
// at a time, in sequence order: allocVC hands a downstream VC out again only
// after the previous packet's tail has left and every credit has returned, so
// the buffered flits are seq, seq+1, ..., seq+n-1 of pkt and no flit needs a
// record of its own. The head is the header when seq == 0 and the tail when
// seq == pkt.SizeFlits-1.
type vcState struct {
	pkt     *Packet // packet currently holding this VC (nil when idle)
	outPort Port    // route computed from the header (valid when pkt != nil)
	outVC   int     // downstream VC granted by VA; -1 until allocated
	seq     int     // sequence number of the head (oldest buffered) flit
	n       int     // flits buffered

	// ready[s%DefaultBufDepth] is the cycle flit s becomes available at this
	// router, which models the pipeline stages and link traversal: VA may
	// serve the header from that cycle on, SA a flit from the cycle after.
	// The credit protocol keeps n <= DefaultBufDepth, so the buffered flits
	// never share a slot.
	ready [DefaultBufDepth]uint64
}

// headReady returns the ready cycle of the VC's head flit.
func (v *vcState) headReady() uint64 { return v.ready[v.seq%DefaultBufDepth] }

// maxVCsPerPort bounds the VCs per input port: a router's VA and SA masks give
// each input VC one bit of a uint64, bit port*maxVCsPerPort+vc, and
// NumPorts*maxVCsPerPort must fit in 64. The same bit indexes Router.vcs.
const maxVCsPerPort = 8

// numVCBits is the size of the mask-bit space, one bit per (port, VC slot).
const numVCBits = int(NumPorts) * maxVCsPerPort

// outLink is one output port and the link it drives, including the
// credit/allocation state of the downstream input port's VCs.
type outLink struct {
	srcPort Port
	dst     *Router // nil for the local ejection port
	dstPort Port
	width   int // flits per cycle (2 for the 256-bit region TSBs)
	isTSV   bool

	credits  [maxVCsPerPort]int  // free buffer slots per downstream VC
	busy     [maxVCsPerPort]bool // downstream VC currently owned by an in-flight packet
	tailSent [maxVCsPerPort]bool // tail forwarded; VC frees once its credits all return
	rr       int                 // SA round-robin pointer: the mask bit after the last winner

	// Fault-injection state (see Network.DegradePort): a faulty link moves
	// flits only on cycles divisible by period; period 0 means dead.
	faulty bool
	period uint64
}

// usableAt reports whether the link may move a flit this cycle.
func (l *outLink) usableAt(now uint64) bool {
	if !l.faulty {
		return true
	}
	return l.period > 0 && now%l.period == 0
}

// fwdOp is one switch grant decided in the router-decide phase of the
// two-phase tick. All of its effects land outside the granting router — a
// credit returned upstream, a flit buffered downstream (or ejected into the
// local NIC), the prioritizer's busy-table charge — so they are deferred here
// and applied by commitOps in ascending router order, which makes them
// visible only at the end of the phase (DESIGN.md §18). A granted flit is
// (pkt, seq); it is ready downstream two cycles after the grant.
type fwdOp struct {
	pkt   *Packet
	ol    *outLink // output link traversed
	seq   int32    // sequence number of the granted flit
	in    uint8    // input VC's mask bit; its feeder is owed a credit
	outVC uint8    // downstream VC the flit lands in
}

// Router is one 2-stage wormhole router. Its input VCs live in one flat
// array indexed by mask bit; the fields VA and SA read on every call come
// first.
type Router struct {
	// vaMask marks the input VCs holding a header that waits for VC
	// allocation (pkt != nil, outVC < 0); saMask marks those that own a
	// downstream VC and hold at least one flit. Only acceptFlit, the VA grant
	// and forward change them, and VA and SA walk their set bits instead of
	// rescanning every (port, VC).
	vaMask uint64
	saMask uint64
	va     int // VA round-robin pointer: the mask bit the next walk starts at

	out    [NumPorts]*outLink
	feeder [NumPorts]*outLink // upstream link of each input port; nil where none
	id     NodeID
	net    *Network

	bufferedFlits int // flits across all input VCs
	bufCap        int // total flit-buffer capacity (fixed at construction)

	// ops is the grant log, drained by commitOps each cycle; the backing
	// array reaches steady-state capacity during warmup.
	ops []fwdOp

	// saPrio is switchAlloc's scratch: the priority of each candidate VC,
	// by mask bit, valid for the bits of this cycle's candidate masks.
	saPrio [numVCBits]int

	vcs [numVCBits]vcState // input VCs, indexed by mask bit port*8+vc
}

// ID returns the router's node ID.
func (r *Router) ID() NodeID { return r.id }

// acceptFlit buffers flit seq of pkt arriving on (port, vc), available from
// cycle readyAt. The header flit claims the VC and has its route computed (the
// RC stage); a body flit must be the next flit of the VC's packet. Marking the
// router active is the caller's job.
func (r *Router) acceptFlit(port Port, vc int, pkt *Packet, seq int, readyAt, now uint64) {
	b := uint(port)*maxVCsPerPort + uint(vc)
	st := &r.vcs[b]
	if st.n >= DefaultBufDepth {
		panic(fmt.Sprintf("noc: buffer overflow at router %d port %s vc %d (credit protocol violated)", r.id, port, vc))
	}
	if seq == 0 {
		if st.pkt != nil {
			panic(fmt.Sprintf("noc: VC %d:%s:%d already owned when header of packet %d arrived", r.id, port, vc, pkt.ID))
		}
		st.pkt = pkt
		st.seq = 0
		st.outPort = r.net.routing.NextPort(r.id, pkt)
		st.outVC = -1
		r.vaMask |= 1 << b
		if o := r.net.obs; o != nil {
			o.HeaderEnqueued(r.id, pkt, now)
		}
	} else {
		if pkt != st.pkt || seq != st.seq+st.n {
			panic(fmt.Sprintf("noc: VC %d:%s:%d got flit %d of packet %d out of order", r.id, port, vc, seq, pkt.ID))
		}
		if st.outVC >= 0 {
			r.saMask |= 1 << b
		}
	}
	st.ready[seq%DefaultBufDepth] = readyAt
	st.n++
	r.bufferedFlits++
	r.net.stats.BufferWrites++
}

// vcAlloc runs the VA stage: headers whose packets do not yet own a
// downstream VC try to claim a free one in their class. Candidates are
// served in priority order (bank-aware policy first), round-robin within a
// priority level.
func (r *Router) vcAlloc(now uint64) {
	if r.vaMask == 0 {
		return
	}
	below := uint64(1)<<uint(r.va) - 1
	// Two passes: priority 0 candidates first, then the delayed ones. Each
	// pass visits the VCs waiting for VA in circular bit order from r.va —
	// the set bits at or above the start bit, then those below — and every
	// one of them, delayed, held or merely out of downstream VCs, gets its
	// Priority call (the bank-aware prioritizer counts its delay decisions,
	// so the call sequence is observable in the stats). A grant clears only
	// the bit being visited and nothing sets a bit during VA, so walking a
	// snapshot of the mask is the same walk.
	for pass := 0; pass < 2 && r.vaMask != 0; pass++ {
		m := r.vaMask
		for _, seg := range [2]uint64{m &^ below, m & below} {
			for ; seg != 0; seg &= seg - 1 {
				r.vaTry(pass, bits.TrailingZeros64(seg), now)
			}
		}
	}
	// Step the start bit to the next VC slot in use: past the last VC of a
	// port lies the first VC of the next, and past the last port, bit 0.
	r.va++
	if r.va%maxVCsPerPort == r.net.numVCs {
		r.va += maxVCsPerPort - r.net.numVCs
	}
	if r.va == numVCBits {
		r.va = 0
	}
}

// vaTry attempts VC allocation for the input VC at mask bit b during the
// given pass; vcAlloc defines the walk order and pass semantics.
func (r *Router) vaTry(pass, b int, now uint64) {
	st := &r.vcs[b]
	// A VC waiting for VA has forwarded nothing yet, so its head is the
	// header flit.
	if now < st.ready[0] {
		return
	}
	prio := r.net.priority(r.id, st.pkt, now)
	if prio >= PriorityHold {
		// Held at this router: do not even reserve a downstream VC.
		return
	}
	if (pass == 0) != (prio == 0) {
		return
	}
	ol := r.out[st.outPort]
	if ol == nil {
		panic(fmt.Sprintf("noc: packet %d routed to missing port %s at router %d", st.pkt.ID, st.outPort, r.id))
	}
	if v := ol.allocVC(st.pkt.Class, r.net); v >= 0 {
		st.outVC = v
		r.vaMask &^= 1 << uint(b)
		r.saMask |= 1 << uint(b)
	}
}

// allocVC claims a free downstream VC in the given class, returning its
// index or -1. A VC whose previous packet's tail has been sent becomes free
// again once all its credits have returned (the downstream buffer drained),
// which prevents a new header from arriving behind a still-buffered tail.
func (l *outLink) allocVC(c Class, n *Network) int {
	lo, hi := n.classVCRange(c)
	for v := lo; v < hi; v++ {
		if l.busy[v] && l.tailSent[v] && l.credits[v] == DefaultBufDepth {
			l.busy[v] = false
			l.tailSent[v] = false
		}
		if !l.busy[v] {
			l.busy[v] = true
			return v
		}
	}
	return -1
}

// switchAlloc runs the SA+ST stages: for every output port, pick up to
// `width` winners among ready flits and move them across the link.
func (r *Router) switchAlloc(now uint64) {
	if r.saMask == 0 {
		return
	}
	// cands[p] marks the VCs competing for output port p, and outs the ports
	// with at least one candidate. Ascending bit order is ascending (port, vc)
	// order, so the Priority calls come out as a full scan would make them.
	var cands [NumPorts]uint64
	var outs uint8
	for m := r.saMask; m != 0; m &= m - 1 {
		b := bits.TrailingZeros64(m)
		st := &r.vcs[b]
		// The flit spends at least one cycle in stage 1 (RC/VA) before
		// competing for the switch in stage 2.
		if now < st.headReady()+1 {
			continue
		}
		ol := r.out[st.outPort]
		if ol.credits[st.outVC] <= 0 || !ol.usableAt(now) {
			continue
		}
		if st.outPort == PortLocal && !r.net.nics[r.id].canEject(st.pkt.Class) {
			// The node interface is full for this class: hold the flit
			// in the router (backpressure into the network).
			continue
		}
		r.saPrio[b] = r.net.priority(r.id, st.pkt, now)
		cands[st.outPort] |= 1 << uint(b)
		outs |= 1 << uint(st.outPort)
	}
	for ; outs != 0; outs &= outs - 1 {
		port := bits.TrailingZeros8(outs)
		ol := r.out[port]
		c := cands[port]
		for slot := 0; slot < ol.width && c != 0; slot++ {
			b := r.pickWinner(c, ol.rr)
			ol.rr = b + 1
			r.forward(b, ol, now)
			// On wide TSBs a second flit of the same packet may be combined
			// into this cycle (the XShare-style 2x128b transfer of Section
			// 3.4); keep the VC a candidate while it still has a ready flit.
			st := &r.vcs[b]
			if r.saMask&(1<<uint(b)) == 0 ||
				now < st.headReady()+1 || ol.credits[st.outVC] <= 0 {
				c &^= 1 << uint(b)
			}
		}
	}
}

// pickWinner selects among the candidate bits c the VC with the lowest
// priority, breaking ties round-robin: the first such bit at or after rr,
// wrapping around. Bits of VC slots a port does not use are never set, so
// this is the first candidate in the flat (port, vc) order from the VC after
// the previous winner.
func (r *Router) pickWinner(c uint64, rr int) int {
	if c&(c-1) == 0 {
		return bits.TrailingZeros64(c) // a lone candidate wins outright
	}
	best, bestPrio := uint64(0), 0
	for s := c; s != 0; s &= s - 1 {
		b := bits.TrailingZeros64(s)
		switch p := r.saPrio[b]; {
		case best == 0 || p < bestPrio:
			best, bestPrio = 1<<uint(b), p
		case p == bestPrio:
			best |= 1 << uint(b)
		}
	}
	if after := best &^ (uint64(1)<<uint(rr) - 1); after != 0 {
		return bits.TrailingZeros64(after)
	}
	return bits.TrailingZeros64(best)
}

// forward is the decide-phase half of a switch grant: it moves the head flit
// of the input VC at mask bit b out of this router's input buffer, charges
// this router's own output-link credit, and logs the grant for commitOps.
// Switch traversal is this cycle, link traversal next, arrival the cycle
// after (HopLatency total per hop including the stage-1 cycle).
//
// Everything mutated here belongs to the granting router — its input VC
// state and its own outLink — so every router decides from the frozen
// cycle-N state. The cross-router effects (upstream credit return,
// downstream buffering, prioritizer charge, traversal stats) are deferred
// into r.ops and applied by commitOps after every router has decided.
func (r *Router) forward(b int, ol *outLink, now uint64) {
	st := &r.vcs[b]
	pkt, seq, outVC := st.pkt, st.seq, st.outVC
	st.seq++
	st.n--
	r.bufferedFlits--

	ol.credits[outVC]--

	tail := seq == pkt.SizeFlits-1
	if tail {
		// Tail releases this input VC immediately; the downstream VC
		// ownership is released lazily once its buffer drains (see allocVC).
		ol.tailSent[outVC] = true
		st.pkt = nil
		st.outVC = -1
	}
	if tail || st.n == 0 {
		r.saMask &^= 1 << uint(b)
	}
	r.ops = append(r.ops, fwdOp{pkt: pkt, ol: ol, seq: int32(seq), in: uint8(b), outVC: uint8(outVC)})
}

// commitOps applies the cross-router half of this router's grants: credits
// returned upstream, prioritizer busy-table charges, traversal statistics,
// and the flit handoff into the downstream router (or the local NIC), ready
// there at now+2 (ST this cycle, link next). The network calls it for every
// ticked router in ascending node order, after every router has decided, so
// no grant sees another's effects in the same cycle.
func (r *Router) commitOps(now uint64) {
	n := r.net
	for i := range r.ops {
		op := &r.ops[i]
		if f := r.feeder[op.in/maxVCsPerPort]; f != nil {
			f.credits[op.in%maxVCsPerPort]++
		}
		if op.seq == 0 {
			op.pkt.Hops++
			if pr := n.prioritizer; pr != nil {
				pr.OnForward(r.id, op.pkt, now)
			}
			if o := n.obs; o != nil {
				o.HeaderGranted(r.id, op.ol.srcPort, op.pkt, now)
			}
		}
		n.countTraversal(op.ol)
		if op.ol.dst == nil {
			n.nics[r.id].receive(op.pkt, now+2)
			// The NIC sinks ejected flits unconditionally; return the credit.
			op.ol.credits[op.outVC]++
		} else {
			op.ol.dst.acceptFlit(op.ol.dstPort, int(op.outVC), op.pkt, int(op.seq), now+2, now)
			n.markRouterActive(op.ol.dst.id)
		}
	}
	if len(r.ops) > 0 {
		n.lastMove = now
		r.ops = r.ops[:0]
	}
}

// occupancy returns the used and total flit-buffer slots of the router, the
// raw material for the RCA congestion estimate. Both come from counters — the
// RCA estimator polls every router every cycle, so this must not walk the VC
// states.
func (r *Router) occupancy() (used, capacity int) {
	return r.bufferedFlits, r.bufCap
}

// ForEachBufferedPacket invokes fn once per packet currently occupying one of
// the router's input VCs (the header may already be partially forwarded for
// in-flight wormholes; such packets are still reported), in ascending (port,
// vc) order. Used by the characterization experiments (Figure 3, Figure 13).
func (r *Router) ForEachBufferedPacket(fn func(*Packet)) {
	for b := range r.vcs {
		if st := &r.vcs[b]; st.pkt != nil && st.n > 0 {
			fn(st.pkt)
		}
	}
}
