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

// vcState is one virtual channel of one input port.
type vcState struct {
	buf []Flit // FIFO of buffered flits

	pkt     *Packet // packet currently holding this VC (nil when idle)
	outPort Port    // route computed from the header (valid when pkt != nil)
	outVC   int     // downstream VC granted by VA; -1 until allocated
}

func (v *vcState) empty() bool { return len(v.buf) == 0 }

func (v *vcState) head() *Flit {
	if len(v.buf) == 0 {
		return nil
	}
	return &v.buf[0]
}

func (v *vcState) pop() Flit {
	f := v.buf[0]
	copy(v.buf, v.buf[1:])
	v.buf = v.buf[:len(v.buf)-1]
	return f
}

// inputPort is one input port: a set of VCs plus a back-pointer to the
// upstream outLink feeding it (for credit returns).
type inputPort struct {
	vcs    []vcState
	feeder *outLink // nil for ports with no incoming link
}

// maxVCsPerPort bounds the VCs per input port: a router's VA and SA masks give
// each input VC one bit of a uint64, bit port*maxVCsPerPort+vc, and
// NumPorts*maxVCsPerPort must fit in 64.
const maxVCsPerPort = 8

// vcBit is the mask bit of input VC (port, vc).
func vcBit(port Port, vc int) uint64 { return 1 << (uint(port)*maxVCsPerPort + uint(vc)) }

// outLink is one output port and the link it drives, including the
// credit/allocation state of the downstream input port's VCs.
type outLink struct {
	srcPort Port
	dst     *Router // nil for the local ejection port
	dstPort Port
	width   int // flits per cycle (2 for the 256-bit region TSBs)
	isTSV   bool

	credits  []int  // free buffer slots per downstream VC
	busy     []bool // downstream VC currently owned by an in-flight packet
	tailSent []bool // tail forwarded; VC frees once its credits all return
	rr       int    // SA round-robin pointer

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
// visible only at the end of the phase (DESIGN.md §18).
type fwdOp struct {
	f      Flit     // the granted flit, readyAt already stamped
	feeder *outLink // upstream link owed a credit (nil for NIC-fed ports)
	ol     *outLink // output link traversed
	fvc    int32    // input VC to credit upstream
	outVC  int32    // downstream VC the flit lands in
}

// Router is one 2-stage wormhole router.
type Router struct {
	id  NodeID
	in  [NumPorts]*inputPort
	out [NumPorts]*outLink
	net *Network
	va  int // VA round-robin pointer over input VCs

	// vaMask marks the input VCs holding a header that waits for VC
	// allocation (pkt != nil, outVC < 0); saMask marks those that own a
	// downstream VC and hold at least one flit. Only acceptFlit, the VA grant
	// and forward change them, and VA and SA walk their set bits instead of
	// rescanning every (port, VC).
	vaMask uint64
	saMask uint64

	bufferedFlits int // flits across all input VCs
	bufCap        int // total flit-buffer capacity (fixed at construction)

	// ops is the grant log, drained by commitOps each cycle; the backing
	// array reaches steady-state capacity during warmup.
	ops []fwdOp

	// saCands is switchAlloc's per-output-port candidate scratch, reused
	// across cycles so the SA stage allocates nothing in steady state.
	saCands [NumPorts][]saCandidate
}

// ID returns the router's node ID.
func (r *Router) ID() NodeID { return r.id }

// numVCs returns the per-port VC count.
func (r *Router) numVCs() int { return r.net.numVCs }

// acceptFlit buffers a flit arriving on (port, vc). The header flit claims
// the VC and has its route computed (the RC stage). Marking the router
// active is the caller's job.
func (r *Router) acceptFlit(port Port, vc int, f Flit, now uint64) {
	ip := r.in[port]
	st := &ip.vcs[vc]
	if len(st.buf) >= r.net.bufDepth {
		panic(fmt.Sprintf("noc: buffer overflow at router %d port %s vc %d (credit protocol violated)", r.id, port, vc))
	}
	if f.IsHead() {
		if st.pkt != nil {
			panic(fmt.Sprintf("noc: VC %d:%s:%d already owned when header of packet %d arrived", r.id, port, vc, f.Pkt.ID))
		}
		st.pkt = f.Pkt
		st.outPort = r.net.routing.NextPort(r.id, f.Pkt)
		st.outVC = -1
		r.vaMask |= vcBit(port, vc)
		if o := r.net.obs; o != nil {
			o.HeaderEnqueued(r.id, f.Pkt, now)
		}
	} else if st.outVC >= 0 {
		r.saMask |= vcBit(port, vc)
	}
	st.buf = append(st.buf, f)
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
	nv := r.net.numVCs
	startIdx := r.va % (int(NumPorts) * nv)
	below := vcBit(Port(startIdx/nv), startIdx%nv) - 1
	// Two passes: priority 0 candidates first, then the delayed ones. Each
	// pass visits the VCs waiting for VA in the flat circular (port, vc)
	// order from r.va — the set bits at or above the start bit, then those
	// below — and every one of them, delayed, held or merely out of
	// downstream VCs, gets its Priority call (the bank-aware prioritizer
	// counts its delay decisions, so the call sequence is observable in the
	// stats). A grant clears only the bit being visited and nothing sets a
	// bit during VA, so walking a snapshot of the mask is the same walk.
	for pass := 0; pass < 2 && r.vaMask != 0; pass++ {
		m := r.vaMask
		for _, seg := range [2]uint64{m &^ below, m & below} {
			for ; seg != 0; seg &= seg - 1 {
				r.vaTry(pass, bits.TrailingZeros64(seg), now)
			}
		}
	}
	r.va++
}

// vaTry attempts VC allocation for the input VC at mask bit b during the
// given pass; vcAlloc defines the walk order and pass semantics.
func (r *Router) vaTry(pass, b int, now uint64) {
	st := &r.in[b/maxVCsPerPort].vcs[b%maxVCsPerPort]
	// A VC waiting for VA has forwarded nothing yet, so its head is the
	// header flit.
	if now < st.head().readyAt {
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
		if l.busy[v] && l.tailSent[v] && l.credits[v] == n.bufDepth {
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

// saCandidate is one (port, vc) pair competing for an output port.
type saCandidate struct {
	port Port
	vc   int
	prio int
}

// switchAlloc runs the SA+ST stages: for every output port, pick up to
// `width` winners among ready flits and move them across the link.
func (r *Router) switchAlloc(now uint64) {
	if r.saMask == 0 {
		return
	}
	// The candidate lists live on the router and are re-sliced to length zero
	// each cycle: after warmup the backing arrays reach steady-state capacity
	// and the SA stage allocates nothing (saCandidate holds no pointers, so
	// the retained arrays pin no packet memory).
	cands := &r.saCands
	for p := range cands {
		cands[p] = cands[p][:0]
	}
	// Ascending bit order is ascending (port, vc) order, so the candidate
	// lists and the Priority calls come out as a full scan would make them.
	for m := r.saMask; m != 0; m &= m - 1 {
		b := bits.TrailingZeros64(m)
		port, vc := Port(b/maxVCsPerPort), b%maxVCsPerPort
		st := &r.in[port].vcs[vc]
		// The flit spends at least one cycle in stage 1 (RC/VA) before
		// competing for the switch in stage 2.
		if now < st.head().readyAt+1 {
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
		cands[st.outPort] = append(cands[st.outPort], saCandidate{
			port: port,
			vc:   vc,
			prio: r.net.priority(r.id, st.pkt, now),
		})
	}
	for port := Port(0); port < NumPorts; port++ {
		ol := r.out[port]
		if ol == nil || len(cands[port]) == 0 {
			continue
		}
		list := cands[port]
		for slot := 0; slot < ol.width && len(list) > 0; slot++ {
			win := pickWinner(list, ol.rr, r.numVCs())
			c := list[win]
			ol.rr = int(c.port)*r.numVCs() + c.vc + 1
			r.forward(c.port, c.vc, ol, now)
			// On wide TSBs a second flit of the same packet may be combined
			// into this cycle (the XShare-style 2x128b transfer of Section
			// 3.4); keep the VC in the list while it still has a ready flit.
			st := &r.in[c.port].vcs[c.vc]
			if r.saMask&vcBit(c.port, c.vc) != 0 &&
				now >= st.head().readyAt+1 && ol.credits[st.outVC] > 0 {
				list[win] = c
			} else {
				list = append(list[:win], list[win+1:]...)
			}
		}
	}
}

// pickWinner selects the candidate with the lowest priority value, breaking
// ties round-robin starting from pointer rr (an index into the port*vc
// space).
func pickWinner(list []saCandidate, rr, numVCs int) int {
	best := -1
	bestPrio := 0
	bestDist := 0
	total := int(NumPorts) * numVCs
	for i, c := range list {
		idx := int(c.port)*numVCs + c.vc
		dist := (idx - rr + total) % total
		if best == -1 || c.prio < bestPrio || (c.prio == bestPrio && dist < bestDist) {
			best, bestPrio, bestDist = i, c.prio, dist
		}
	}
	return best
}

// forward is the decide-phase half of a switch grant: it moves the head flit
// of (port, vc) out of this router's input buffer, charges this router's own
// output-link credit, and logs the grant for commitOps. Switch traversal is
// this cycle, link traversal next, arrival the cycle after (HopLatency total
// per hop including the stage-1 cycle).
//
// Everything mutated here belongs to the granting router — its input VC
// state and its own outLink — so every router decides from the frozen
// cycle-N state. The cross-router effects (upstream credit return,
// downstream buffering, prioritizer charge, traversal stats) are deferred
// into r.ops and applied by commitOps after every router has decided.
func (r *Router) forward(port Port, vc int, ol *outLink, now uint64) {
	ip := r.in[port]
	st := &ip.vcs[vc]
	f := st.pop()
	r.bufferedFlits--
	outVC := st.outVC

	ol.credits[outVC]--

	if f.Tail {
		// Tail releases this input VC immediately; the downstream VC
		// ownership is released lazily once its buffer drains (see allocVC).
		ol.tailSent[outVC] = true
		st.pkt = nil
		st.outVC = -1
	}
	if f.Tail || st.empty() {
		r.saMask &^= vcBit(port, vc)
	}

	f.readyAt = now + 2 // ST this cycle, link next; available downstream after
	r.ops = append(r.ops, fwdOp{f: f, feeder: ip.feeder, ol: ol, fvc: int32(vc), outVC: int32(outVC)})
}

// commitOps applies the cross-router half of this router's grants: credits
// returned upstream, prioritizer busy-table charges, traversal statistics,
// and the flit handoff into the downstream router (or the local NIC). The
// network calls it for every ticked router in ascending node order, after
// every router has decided, so no grant sees another's effects in the same
// cycle.
func (r *Router) commitOps(now uint64) {
	n := r.net
	for i := range r.ops {
		op := &r.ops[i]
		if op.feeder != nil {
			op.feeder.credits[op.fvc]++
		}
		if op.f.IsHead() {
			op.f.Pkt.Hops++
			if pr := n.prioritizer; pr != nil {
				pr.OnForward(r.id, op.f.Pkt, now)
			}
			if o := n.obs; o != nil {
				o.HeaderGranted(r.id, op.ol.srcPort, op.f.Pkt, now)
			}
		}
		n.countTraversal(op.ol)
		if op.ol.dst == nil {
			n.nics[r.id].receive(op.f, now+2)
			// The NIC sinks ejected flits unconditionally; return the credit.
			op.ol.credits[op.outVC]++
		} else {
			op.ol.dst.acceptFlit(op.ol.dstPort, int(op.outVC), op.f, now)
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
// in-flight wormholes; such packets are still reported). Used by the
// characterization experiments (Figure 3, Figure 13).
func (r *Router) ForEachBufferedPacket(fn func(*Packet)) {
	for port := Port(0); port < NumPorts; port++ {
		ip := r.in[port]
		if ip == nil {
			continue
		}
		for vc := range ip.vcs {
			if p := ip.vcs[vc].pkt; p != nil && !ip.vcs[vc].empty() {
				fn(p)
			}
		}
	}
}
