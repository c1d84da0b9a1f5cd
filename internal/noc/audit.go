package noc

import "fmt"

// CheckInvariants audits the network's internal consistency and returns the
// first violation found, or nil. It verifies, for every link:
//
//   - credit conservation: the upstream credit count plus the flits buffered
//     in the downstream VC equals the buffer depth;
//   - VC ownership: a VC holding flits belongs to a packet and holds none
//     past that packet's tail, and a free VC holds no flits;
//   - occupancy state: the router's buffered-flit counter and its VA and SA
//     masks agree with the actual VC states.
//
// acceptFlit itself rejects a flit that is not the next one of the VC's
// packet, so a VC always holds one packet's flits in sequence order.
//
// The simulator's tests call this after traffic storms; it is cheap enough
// to call every few thousand cycles in long soak runs.
func (n *Network) CheckInvariants() error {
	for id := NodeID(0); id < NodeID(n.numNodes); id++ {
		r := &n.routers[id]
		buffered := 0
		var vaMask, saMask uint64
		for b := range r.vcs {
			st := &r.vcs[b]
			port, vc := Port(b/maxVCsPerPort), b%maxVCsPerPort
			buffered += st.n
			if st.pkt != nil && st.outVC < 0 {
				vaMask |= 1 << uint(b)
			}
			if st.outVC >= 0 && st.n > 0 {
				saMask |= 1 << uint(b)
			}
			if st.pkt == nil && st.n > 0 {
				return fmt.Errorf("noc: router %d port %s vc %d holds %d flits with no owner",
					id, port, vc, st.n)
			}
			if st.pkt != nil && st.seq+st.n > st.pkt.SizeFlits {
				return fmt.Errorf("noc: router %d port %s vc %d holds flits past its packet's tail (flits %d..%d of %d)",
					id, port, vc, st.seq, st.seq+st.n-1, st.pkt.SizeFlits)
			}
			// Credit conservation against the feeder.
			f := r.feeder[port]
			if f == nil || vc >= n.numVCs {
				continue
			}
			if got := f.credits[vc] + st.n; got != DefaultBufDepth {
				return fmt.Errorf("noc: router %d port %s vc %d credits+buffered = %d, want %d",
					id, port, vc, got, DefaultBufDepth)
			}
			if f.credits[vc] < 0 {
				return fmt.Errorf("noc: router %d port %s vc %d negative credits", id, port, vc)
			}
		}
		if buffered != r.bufferedFlits {
			return fmt.Errorf("noc: router %d counter says %d buffered flits, found %d",
				id, r.bufferedFlits, buffered)
		}
		if vaMask != r.vaMask {
			return fmt.Errorf("noc: router %d VA mask %#x, VCs awaiting allocation %#x",
				id, r.vaMask, vaMask)
		}
		if saMask != r.saMask {
			return fmt.Errorf("noc: router %d SA mask %#x, VCs eligible for the switch %#x",
				id, r.saMask, saMask)
		}
	}
	return nil
}
