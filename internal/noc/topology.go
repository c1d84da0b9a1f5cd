package noc

import (
	"fmt"
	"strconv"
	"strings"
)

// Topology is the runtime shape of the 3D network: an MeshX x MeshY mesh per
// layer, Layers stacked layers. Layer 0 is always the core layer; layers
// 1..Layers-1 are cache layers, each holding MeshX*MeshY banks. The paper's
// system (Table 1) is the 8x8x2 default; every structure in this package is
// sized from a Topology value at construction, so one process can host
// differently shaped networks side by side (the exploration engine runs them
// concurrently through the campaign pool).
//
// Node numbering generalizes Figure 4: node = layer*LayerSize + y*MeshX + x.
// The Topology methods are the only geometry over a NodeID, and
// DefaultTopology is the only place the paper's shape is written down.
type Topology struct {
	MeshX  int // mesh width (columns) per layer
	MeshY  int // mesh height (rows) per layer
	Layers int // total stacked layers, including the core layer (>= 2)
}

// Topology resource ceilings. They bound the O(n^2) routing tables and the
// per-node state a single accepted configuration can allocate.
const (
	// MinMeshDim / MaxMeshDim bound each mesh axis.
	MinMeshDim = 2
	MaxMeshDim = 32
	// MaxLayers bounds the stack height (core layer + up to 7 cache layers).
	MaxLayers = 8
	// MaxTopologyNodes bounds the total node count; the routing layer keeps
	// two n x n next-hop tables, so this caps them at 2 x 4 MiB.
	MaxTopologyNodes = 2048
)

// DefaultTopology is the paper's 8x8x2 system: one 64-core layer under one
// 64-bank cache layer.
func DefaultTopology() Topology {
	return Topology{MeshX: 8, MeshY: 8, Layers: 2}
}

// IsDefault reports whether t is the paper's 8x8x2 shape.
func (t Topology) IsDefault() bool { return t == DefaultTopology() }

// Validate checks the topology's bounds. A nil return guarantees every
// derived quantity (LayerSize, NumNodes, NumBanks) is positive and within the
// package ceilings.
func (t Topology) Validate() error {
	if t.MeshX < MinMeshDim || t.MeshX > MaxMeshDim {
		return fmt.Errorf("noc: mesh width %d outside [%d,%d]", t.MeshX, MinMeshDim, MaxMeshDim)
	}
	if t.MeshY < MinMeshDim || t.MeshY > MaxMeshDim {
		return fmt.Errorf("noc: mesh height %d outside [%d,%d]", t.MeshY, MinMeshDim, MaxMeshDim)
	}
	if t.Layers < 2 || t.Layers > MaxLayers {
		return fmt.Errorf("noc: layer count %d outside [2,%d]", t.Layers, MaxLayers)
	}
	if n := t.NumNodes(); n > MaxTopologyNodes {
		return fmt.Errorf("noc: %dx%dx%d has %d nodes, above the %d-node ceiling",
			t.MeshX, t.MeshY, t.Layers, n, MaxTopologyNodes)
	}
	return nil
}

// String renders the shape as "8x8x2".
func (t Topology) String() string {
	return fmt.Sprintf("%dx%dx%d", t.MeshX, t.MeshY, t.Layers)
}

// ParseTopology parses a "XxYxL" shape string (e.g. "8x8x2", "16x16x3").
func ParseTopology(s string) (Topology, error) {
	parts := strings.Split(strings.ToLower(strings.TrimSpace(s)), "x")
	if len(parts) != 3 {
		return Topology{}, fmt.Errorf("noc: topology %q is not of the form WxHxL (e.g. 8x8x2)", s)
	}
	var dims [3]int
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return Topology{}, fmt.Errorf("noc: topology %q: bad dimension %q", s, p)
		}
		dims[i] = v
	}
	t := Topology{MeshX: dims[0], MeshY: dims[1], Layers: dims[2]}
	if err := t.Validate(); err != nil {
		return Topology{}, err
	}
	return t, nil
}

// LayerSize returns the node count per layer.
func (t Topology) LayerSize() int { return t.MeshX * t.MeshY }

// NumNodes returns the total node count.
func (t Topology) NumNodes() int { return t.Layers * t.LayerSize() }

// NumCores returns the core count (the whole of layer 0).
func (t Topology) NumCores() int { return t.LayerSize() }

// CacheLayers returns the number of stacked cache layers.
func (t Topology) CacheLayers() int { return t.Layers - 1 }

// NumBanks returns the total cache-bank count across all cache layers. Banks
// are numbered 0..NumBanks-1 in node order: bank b lives at node
// LayerSize + b.
func (t Topology) NumBanks() int { return t.CacheLayers() * t.LayerSize() }

// BankNode returns the node hosting bank index b.
func (t Topology) BankNode(b int) NodeID { return NodeID(t.LayerSize() + b) }

// BankIndex returns the bank index of a cache-layer node.
func (t Topology) BankIndex(n NodeID) int { return int(n) - t.LayerSize() }

// NodeAt returns the NodeID at (x, y) in the given layer.
func (t Topology) NodeAt(layer, x, y int) NodeID {
	return NodeID(layer*t.LayerSize() + y*t.MeshX + x)
}

// Layer returns the layer of node n (0 is the core layer).
func (t Topology) Layer(n NodeID) int { return int(n) / t.LayerSize() }

// X returns the column of node n within its layer.
func (t Topology) X(n NodeID) int { return int(n) % t.MeshX }

// Y returns the row of node n within its layer.
func (t Topology) Y(n NodeID) int { return (int(n) % t.LayerSize()) / t.MeshX }

// Below returns the node directly under n, one layer down the stack.
func (t Topology) Below(n NodeID) NodeID { return n + NodeID(t.LayerSize()) }

// Above returns the node directly over n, one layer up the stack.
func (t Topology) Above(n NodeID) NodeID { return n - NodeID(t.LayerSize()) }

// ValidNode reports whether n names an existing node of this topology.
func (t Topology) ValidNode(n NodeID) bool { return n >= 0 && int(n) < t.NumNodes() }

// SameLayerDistance returns the Manhattan distance between two nodes of the
// same layer.
func (t Topology) SameLayerDistance(a, b NodeID) int {
	dx := t.X(a) - t.X(b)
	if dx < 0 {
		dx = -dx
	}
	dy := t.Y(a) - t.Y(b)
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// Diameter returns the worst-case hop distance between any two nodes (the
// in-layer Manhattan diameter plus the full stack height).
func (t Topology) Diameter() int {
	return (t.MeshX - 1) + (t.MeshY - 1) + (t.Layers - 1)
}

// XYNext returns the port taking one X-Y step from node at toward the
// same-layer node dst (PortLocal when already there). It panics if the nodes
// are on different layers, since that is a routing-logic error.
func (t Topology) XYNext(at, dst NodeID) Port {
	if t.Layer(at) != t.Layer(dst) {
		panic("noc: XYNext across layers")
	}
	switch {
	case t.X(at) < t.X(dst):
		return PortEast
	case t.X(at) > t.X(dst):
		return PortWest
	case t.Y(at) < t.Y(dst):
		return PortNorth
	case t.Y(at) > t.Y(dst):
		return PortSouth
	default:
		return PortLocal
	}
}

// Neighbor returns the node reached by leaving at through port p, or -1 when
// the port exits the mesh (edge ports, or vertical ports off the stack).
func (t Topology) Neighbor(at NodeID, p Port) NodeID {
	x, y, layer := t.X(at), t.Y(at), t.Layer(at)
	switch p {
	case PortNorth:
		if y+1 >= t.MeshY {
			return -1
		}
		return t.NodeAt(layer, x, y+1)
	case PortSouth:
		if y-1 < 0 {
			return -1
		}
		return t.NodeAt(layer, x, y-1)
	case PortEast:
		if x+1 >= t.MeshX {
			return -1
		}
		return t.NodeAt(layer, x+1, y)
	case PortWest:
		if x-1 < 0 {
			return -1
		}
		return t.NodeAt(layer, x-1, y)
	case PortDown:
		if layer+1 >= t.Layers {
			return -1
		}
		return t.Below(at)
	case PortUp:
		if layer == 0 {
			return -1
		}
		return t.Above(at)
	default:
		return -1
	}
}

// XYPath returns the X-Y route between two same-layer nodes, inclusive of
// both endpoints.
func (t Topology) XYPath(a, b NodeID) []NodeID {
	path := []NodeID{a}
	for at := a; at != b; {
		at = t.Neighbor(at, t.XYNext(at, b))
		path = append(path, at)
	}
	return path
}
