package core

import "sttsim/internal/noc"

// Estimator predicts the congestion (in cycles) a request forwarded by a
// parent router will encounter on its way to a child bank (Section 3.5).
type Estimator interface {
	// Name identifies the scheme ("SS", "RCA", "WB").
	Name() string
	// Congestion returns the estimated extra delay in cycles from parent to
	// child at cycle now.
	Congestion(parent, child noc.NodeID, now uint64) uint64
}

// TickingEstimator is an estimator that must observe every cycle (RCA's
// neighbor aggregation).
type TickingEstimator interface {
	Estimator
	Tick(now uint64)
}

// SSEstimator is the Simplistic Scheme: congestion is ignored entirely, so a
// parent delays requests by exactly the base latency plus the bank service
// time. Cheap, but under-delays when the network is congested.
type SSEstimator struct{}

// Name returns "SS".
func (SSEstimator) Name() string { return "SS" }

// Congestion always returns 0.
func (SSEstimator) Congestion(parent, child noc.NodeID, now uint64) uint64 { return 0 }

// RCAQuantBits is the width of the congestion side-band wires between
// neighboring routers (8 bits, following Grot et al. as cited in Section
// 3.5).
const RCAQuantBits = 8

// RCAScale converts a normalized [0,1] congestion estimate into cycles. A
// fully congested two-hop neighborhood adds roughly three VC buffers' worth
// of serialization.
const RCAScale = 16.0

// RCAEstimator implements the Regional Congestion Aware scheme: each router
// aggregates its local buffer utilization with its neighbors' previous
// aggregates (equally weighted, as in the paper), quantized to 8-bit values
// propagated over dedicated side wires.
type RCAEstimator struct {
	net  *noc.Network
	topo noc.Topology
	agg  []float64
	next []float64
}

// NewRCAEstimator builds an RCA estimator reading congestion from net.
func NewRCAEstimator(net *noc.Network) *RCAEstimator {
	n := net.NumNodes()
	return &RCAEstimator{
		net:  net,
		topo: net.Topology(),
		agg:  make([]float64, n),
		next: make([]float64, n),
	}
}

// Name returns "RCA".
func (e *RCAEstimator) Name() string { return "RCA" }

// Tick recomputes every router's aggregate from the previous cycle's values,
// mimicking the one-hop-per-cycle propagation of the real side-band wires.
func (e *RCAEstimator) Tick(now uint64) {
	// Utilization is normalized to one port's worth of buffering (the port
	// along which estimates propagate, following Grot et al.), saturating at
	// 1 when more than a port's buffers are occupied router-wide.
	portCap := float64(e.net.NumVCs() * e.net.BufDepth())
	for id := noc.NodeID(0); id < noc.NodeID(e.net.NumNodes()); id++ {
		used, _ := e.net.Occupancy(id)
		local := float64(used) / portCap
		if local > 1 {
			local = 1
		}
		var sum float64
		var cnt int
		for p := noc.PortNorth; p < noc.PortLocal; p++ {
			if nb := e.topo.Neighbor(id, p); nb >= 0 {
				sum += e.agg[nb]
				cnt++
			}
		}
		neighbor := 0.0
		if cnt > 0 {
			neighbor = sum / float64(cnt)
		}
		// Equal weighting of local and regional estimates, quantized to the
		// 8-bit side-band resolution.
		v := 0.5*local + 0.5*neighbor
		q := float64(int(v*255+0.5)) / 255
		e.next[id] = q
	}
	copy(e.agg, e.next)
}

// Congestion reads the aggregate at the first hop toward the child (the
// intermediate router whose queues the request must cross).
func (e *RCAEstimator) Congestion(parent, child noc.NodeID, now uint64) uint64 {
	mid := parent
	if e.topo.Layer(parent) < e.topo.Layer(child) {
		mid = e.topo.Below(parent)
	} else if parent != child {
		mid = e.topo.Neighbor(parent, e.topo.XYNext(parent, child))
	}
	if !e.topo.ValidNode(mid) {
		mid = child
	}
	return uint64(e.agg[mid]*RCAScale + 0.5)
}

// WB estimator parameters (Section 3.5): every N packets the parent tags one
// with a B-bit timestamp; the child acknowledges it and the parent takes
// half the round-trip as the congestion estimate.
const (
	// WBWindow is N, the tagging period in packets.
	WBWindow = 100
	// WBTimestampBits is B, the timestamp width carried in the header flit.
	WBTimestampBits = 8
)

// WBEstimator implements the Window-Based scheme. It requires cooperation
// from the destination NICs: tagged packets must be answered with a
// KindTSAck packet echoing the timestamp (the simulator wires this up), and
// the parent feeds arriving acks into OnTSAck.
type WBEstimator struct {
	window  int
	counter []int    // per child: packets since last tag
	cong    []uint64 // per child: latest congestion estimate

	// Statistics.
	TagsSent     uint64
	AcksReceived uint64
}

// NewWBEstimatorFor builds a WB estimator with a custom window over a
// numNodes-node topology.
func NewWBEstimatorFor(window, numNodes int) *WBEstimator {
	if window < 1 {
		window = 1
	}
	return &WBEstimator{
		window:  window,
		counter: make([]int, numNodes),
		cong:    make([]uint64, numNodes),
	}
}

// Name returns "WB".
func (e *WBEstimator) Name() string { return "WB" }

// Congestion returns the latest per-child estimate.
func (e *WBEstimator) Congestion(parent, child noc.NodeID, now uint64) uint64 {
	return e.cong[child]
}

// MaybeTag is called by the arbiter when a parent forwards a request to a
// child; every Nth packet gets the 8-bit timestamp appended to its header.
func (e *WBEstimator) MaybeTag(parent noc.NodeID, p *noc.Packet, now uint64) {
	e.counter[p.Dst]++
	if e.counter[p.Dst] < e.window {
		return
	}
	e.counter[p.Dst] = 0
	p.Tagged = true
	p.Timestamp = uint8(now) // B-bit counter; roll-over handled on receipt
	p.TagParent = parent
	p.TagChild = p.Dst
	e.TagsSent++
}

// OnTSAck ingests an acknowledgment: the congestion estimate is half the
// timestamp round trip (8-bit modular arithmetic absorbs counter roll-over).
func (e *WBEstimator) OnTSAck(p *noc.Packet, now uint64) {
	rtt := uint64(uint8(now) - p.Timestamp)
	e.cong[p.TagChild] = rtt / 2
	e.AcksReceived++
}
