package noc

import "fmt"

// RequestPathMode selects how core-to-cache demand requests reach the cache
// layer (the 64TSB vs 4TSB design axis of Section 4.1).
type RequestPathMode int

const (
	// PathAllTSVs lets a request descend through its source node's own TSV
	// (Z-X-Y routing); all 64 vertical links carry requests.
	PathAllTSVs RequestPathMode = iota
	// PathRegionTSBs forces all requests to a cache bank through the single
	// high-density TSB serving that bank's logical region (Section 3.4),
	// creating the serialization points the prioritization schemes need.
	PathRegionTSBs
)

// String names the mode.
func (m RequestPathMode) String() string {
	if m == PathRegionTSBs {
		return "regionTSB"
	}
	return "allTSV"
}

// Routing is the deterministic routing function. Within a layer it is X-Y
// (X first, then Y); layer transitions happen at the source column (Z-X-Y)
// for unrestricted traffic, or at the region TSB column for demand requests
// under PathRegionTSBs. With more than two layers, vertical traffic keeps
// descending (or ascending) through the same column until it reaches the
// destination layer — a TSB is a multi-drop bus through the whole stack.
type Routing struct {
	topo Topology
	n    int // cached topo.NumNodes(), the next-hop tables' stride
	mode RequestPathMode
	// tsbOf maps each cache-layer node to the core-layer node hosting the
	// TSB that serves its region. Only consulted under PathRegionTSBs.
	tsbOf []NodeID

	// Vertical-link fault state (fault-injection campaigns): downDead marks
	// core-layer nodes whose down-link has failed; descendAt caches, per
	// core-layer node, the nearest surviving node with a working down-link.
	// hasDeadDown gates all of it so the fault-free path costs nothing.
	hasDeadDown bool
	downDead    []bool
	descendAt   []NodeID

	// Precomputed next-hop tables: the routing function depends only on
	// (current node, destination, demand-request?), so NextPort — called for
	// every header flit at every hop, squarely in the hot loop — is a table
	// lookup. rebuild() refreshes both tables whenever the function changes
	// (construction, TSB re-homing, vertical-link failure). Flat n*n layout,
	// indexed at*n+dst; 2 x 16 KiB at the default 128-node shape.
	next       []int8 // unrestricted traffic
	demandNext []int8 // demand requests (region-TSB rule)
}

// NewRoutingTopo builds a routing function over an arbitrary topology. Under
// PathRegionTSBs, tsbOf must map every cache-layer node to a core-layer TSB
// node.
func NewRoutingTopo(topo Topology, mode RequestPathMode, tsbOf map[NodeID]NodeID) (*Routing, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	n := topo.NumNodes()
	ls := topo.LayerSize()
	r := &Routing{
		topo:       topo,
		n:          n,
		mode:       mode,
		tsbOf:      make([]NodeID, n),
		downDead:   make([]bool, ls),
		descendAt:  make([]NodeID, ls),
		next:       make([]int8, n*n),
		demandNext: make([]int8, n*n),
	}
	if mode == PathRegionTSBs {
		for node := NodeID(ls); node < NodeID(n); node++ {
			t, ok := tsbOf[node]
			if !ok {
				return nil, fmt.Errorf("noc: no TSB assigned to cache node %d", node)
			}
			if !topo.ValidNode(t) || topo.Layer(t) != 0 {
				return nil, fmt.Errorf("noc: TSB node %d for cache node %d is not in the core layer", t, node)
			}
			r.tsbOf[node] = t
		}
	}
	r.rebuild()
	return r, nil
}

// Topology returns the shape this routing function was built for.
func (r *Routing) Topology() Topology { return r.topo }

// Mode returns the request-path mode.
func (r *Routing) Mode() RequestPathMode { return r.mode }

// TSBOf returns the core-layer TSB node serving cache node d (only
// meaningful under PathRegionTSBs).
func (r *Routing) TSBOf(d NodeID) NodeID { return r.tsbOf[d] }

// UpdateTSBMap replaces the cache-node-to-TSB assignment mid-run — the
// re-homing step of graceful degradation after a TSB failure. It validates
// like NewRoutingTopo and is a no-op for PathAllTSVs routings.
func (r *Routing) UpdateTSBMap(tsbOf map[NodeID]NodeID) error {
	if r.mode != PathRegionTSBs {
		return nil
	}
	n := r.topo.NumNodes()
	ls := r.topo.LayerSize()
	for node := NodeID(ls); node < NodeID(n); node++ {
		t, ok := tsbOf[node]
		if !ok {
			return fmt.Errorf("noc: no TSB assigned to cache node %d", node)
		}
		if !r.topo.ValidNode(t) || r.topo.Layer(t) != 0 {
			return fmt.Errorf("noc: TSB node %d for cache node %d is not in the core layer", t, node)
		}
		if r.downDead[t] {
			return fmt.Errorf("noc: TSB map routes cache node %d through dead TSB %d", node, t)
		}
	}
	for node := NodeID(ls); node < NodeID(n); node++ {
		r.tsbOf[node] = tsbOf[node]
	}
	r.rebuild()
	return nil
}

// FailDown marks the vertical down-link at core-layer node c dead for future
// route computations. Descending traffic that would have used it detours
// through the nearest surviving down-link (Manhattan distance, lowest node ID
// on ties). It fails when c is not a core-layer node or when no down-link
// would survive.
func (r *Routing) FailDown(c NodeID) error {
	if !r.topo.ValidNode(c) || r.topo.Layer(c) != 0 {
		return fmt.Errorf("noc: FailDown(%d): not a core-layer node", c)
	}
	alive := 0
	for i := range r.downDead {
		if !r.downDead[i] && NodeID(i) != c {
			alive++
		}
	}
	if alive == 0 {
		return fmt.Errorf("noc: FailDown(%d) would kill the last vertical down-link", c)
	}
	r.downDead[c] = true
	r.hasDeadDown = true
	r.recomputeDescents()
	r.rebuild()
	return nil
}

// DownDead reports whether the down-link at core-layer node c has failed.
func (r *Routing) DownDead(c NodeID) bool {
	return r.topo.ValidNode(c) && r.topo.Layer(c) == 0 && r.downDead[c]
}

// recomputeDescents refreshes the per-node nearest-surviving-down-link cache.
func (r *Routing) recomputeDescents() {
	for i := range r.downDead {
		at := NodeID(i)
		if !r.downDead[i] {
			r.descendAt[i] = at
			continue
		}
		best := NodeID(-1)
		bestDist := 0
		for j := range r.downDead {
			if r.downDead[j] {
				continue
			}
			d := r.topo.SameLayerDistance(at, NodeID(j))
			if best < 0 || d < bestDist {
				best, bestDist = NodeID(j), d
			}
		}
		r.descendAt[i] = best
	}
}

// isDemandRequest reports whether the packet is a core-to-cache demand
// request, the only traffic restricted to region TSBs. Coherence traffic,
// responses, and memory traffic use all 64 TSVs (Section 3.4).
func isDemandRequest(p *Packet) bool {
	return p.Kind == KindReadReq || p.Kind == KindWriteReq
}

// NextPort returns the output port packet p takes at node at.
func (r *Routing) NextPort(at NodeID, p *Packet) Port {
	i := int(at)*r.n + int(p.Dst)
	if isDemandRequest(p) {
		return Port(r.demandNext[i])
	}
	return Port(r.next[i])
}

// rebuild recomputes both next-hop tables from the current routing state.
func (r *Routing) rebuild() {
	n := NodeID(r.topo.NumNodes())
	for at := NodeID(0); at < n; at++ {
		for dst := NodeID(0); dst < n; dst++ {
			i := int(at)*int(n) + int(dst)
			r.next[i] = int8(r.computeNextPort(at, dst, false))
			r.demandNext[i] = int8(r.computeNextPort(at, dst, true))
		}
	}
}

// computeNextPort is the routing function proper, evaluated only by rebuild.
func (r *Routing) computeNextPort(at, dst NodeID, demand bool) Port {
	if at == dst {
		return PortLocal
	}
	atL, dstL := r.topo.Layer(at), r.topo.Layer(dst)
	if atL == dstL {
		// Same layer (including a demand request that already descended
		// through its region TSB): plain X-Y.
		return r.topo.XYNext(at, dst)
	}
	// Cross-layer.
	if dstL > atL {
		// Descending. Any layer transitions happen in the core layer; once a
		// packet is mid-stack it stays in its column until the target layer.
		if atL > 0 {
			return PortDown
		}
		// Demand requests under region routing must first reach the region
		// TSB node in the core layer.
		if r.mode == PathRegionTSBs && demand {
			tsb := r.tsbOf[dst]
			if at == tsb {
				return PortDown
			}
			return r.topo.XYNext(at, tsb)
		}
		// Unrestricted: descend immediately (Z-X-Y). With failed vertical
		// links, a node whose own down-link is dead detours X-Y toward its
		// nearest surviving down-link; the per-hop nearest-alive distance
		// strictly shrinks, so the detour cannot loop.
		if r.hasDeadDown && r.downDead[at] {
			return r.topo.XYNext(at, r.descendAt[at])
		}
		return PortDown
	}
	// Ascending: all TSVs available; ascend immediately (Z-X-Y).
	return PortUp
}

// NextHop returns the node the packet moves to from at (or at itself when the
// next port is PortLocal).
func (r *Routing) NextHop(at NodeID, p *Packet) NodeID {
	port := r.NextPort(at, p)
	if port == PortLocal {
		return at
	}
	n := r.topo.Neighbor(at, port)
	if n < 0 {
		panic(fmt.Sprintf("noc: route for packet %d fell off the mesh at node %d port %s", p.ID, at, port))
	}
	return n
}

// Path returns the full sequence of nodes the packet visits from its source
// to its destination, inclusive.
func (r *Routing) Path(p *Packet) []NodeID {
	path := []NodeID{p.Src}
	at := p.Src
	for at != p.Dst {
		at = r.NextHop(at, p)
		path = append(path, at)
		if len(path) > 4*r.topo.NumNodes() {
			panic(fmt.Sprintf("noc: routing loop for packet from %d to %d", p.Src, p.Dst))
		}
	}
	return path
}
