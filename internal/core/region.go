// Package core implements the paper's contribution: STT-RAM-aware on-chip
// network arbitration (Section 3). It provides
//
//   - logical partitioning of the cache layer into regions, each served by
//     one high-density TSB (Section 3.4, Figure 4/11), with corner or
//     staggered TSB placement;
//   - the parent/child map: the router H hops (default 2) before each cache
//     bank on its region-TSB route, where requests are re-ordered;
//   - per-child busy-duration tracking (Section 3.5) driven by one of three
//     congestion estimators: Simplistic (SS), Regional Congestion Aware
//     (RCA), and Window-Based (WB);
//   - the bank-aware Prioritizer plugged into the routers' VA/SA stages,
//     which delays requests to busy banks and promotes everything else.
package core

import (
	"fmt"

	"sttsim/internal/noc"
)

// Placement selects where each region's TSB sits (Figure 11).
type Placement int

const (
	// PlacementCorner puts each TSB at the region corner nearest the mesh
	// center (Figure 11a/11d).
	PlacementCorner Placement = iota
	// PlacementStagger spreads the TSBs across distinct columns so their
	// Y-direction core-layer flows do not overlap (Figure 11b/11c); the
	// paper measures ~3% IPC gain from staggering.
	PlacementStagger
)

// String names the placement.
func (p Placement) String() string {
	if p == PlacementStagger {
		return "stagger"
	}
	return "corner"
}

// RegionTile picks the rectangular region tile (w, h) for a region count on
// a mesh: w must divide MeshX, h must divide MeshY, and the tiles must cover
// the layer in exactly the requested number of regions. Among the feasible
// tilings it prefers the squarest (minimal |w-h|, larger w on ties), which
// reproduces the paper's 8x8 tilings exactly: 4 regions -> 4x4 tiles,
// 8 -> 4x2, 16 -> 2x2.
func RegionTile(topo noc.Topology, regions int) (w, h int, err error) {
	if regions != 4 && regions != 8 && regions != 16 {
		return 0, 0, fmt.Errorf("core: unsupported region count %d (want 4, 8, or 16)", regions)
	}
	bestW, bestH := -1, -1
	for cw := 1; cw <= topo.MeshX; cw++ {
		if topo.MeshX%cw != 0 {
			continue
		}
		for ch := 1; ch <= topo.MeshY; ch++ {
			if topo.MeshY%ch != 0 {
				continue
			}
			if (topo.MeshX/cw)*(topo.MeshY/ch) != regions {
				continue
			}
			if bestW < 0 || better(cw, ch, bestW, bestH) {
				bestW, bestH = cw, ch
			}
		}
	}
	if bestW < 0 {
		return 0, 0, fmt.Errorf("core: %d regions do not tile a %dx%d mesh", regions, topo.MeshX, topo.MeshY)
	}
	return bestW, bestH, nil
}

// better reports whether tile (w, h) beats (bw, bh): squarer wins, wider
// breaks ties.
func better(w, h, bw, bh int) bool {
	d, bd := w-h, bw-bh
	if d < 0 {
		d = -d
	}
	if bd < 0 {
		bd = -bd
	}
	if d != bd {
		return d < bd
	}
	return w > bw
}

// RegionLayout is a logical partitioning of the cache layers into rectangular
// regions, each with a designated TSB (a core-layer node whose vertical link
// is the 256-bit bus carrying all requests into the region). With stacked
// cache layers the TSB is a multi-drop bus through the whole column, so a
// bank's region is determined by its (x, y) position regardless of layer.
type RegionLayout struct {
	topo      noc.Topology
	regions   int
	placement Placement
	tileW     int
	tileH     int
	tsbCore   []noc.NodeID              // per region: core-layer TSB node
	regionOf  []int                     // in-layer offset (0..LayerSize-1) -> region
	tsbMap    map[noc.NodeID]noc.NodeID // cache node -> core TSB node
}

// NewRegionLayoutTopo partitions an arbitrary topology's cache layers into
// regions with the given TSB placement.
func NewRegionLayoutTopo(topo noc.Topology, regions int, placement Placement) (*RegionLayout, error) {
	tileW, tileH, err := RegionTile(topo, regions)
	if err != nil {
		return nil, err
	}
	layerSize := topo.LayerSize()
	l := &RegionLayout{
		topo:      topo,
		regions:   regions,
		placement: placement,
		tileW:     tileW,
		tileH:     tileH,
		tsbCore:   make([]noc.NodeID, regions),
		regionOf:  make([]int, layerSize),
		tsbMap:    make(map[noc.NodeID]noc.NodeID, topo.NumBanks()),
	}
	tilesX := topo.MeshX / tileW
	for off := 0; off < layerSize; off++ {
		x, y := off%topo.MeshX, off/topo.MeshX
		l.regionOf[off] = (y/tileH)*tilesX + x/tileW
	}
	for r := 0; r < regions; r++ {
		l.tsbCore[r] = l.placeTSB(r, tilesX)
	}
	for node := layerSize; node < topo.NumNodes(); node++ {
		l.tsbMap[noc.NodeID(node)] = l.tsbCore[l.regionOf[node%layerSize]]
	}
	return l, nil
}

// placeTSB picks the TSB cell for region r.
func (l *RegionLayout) placeTSB(r, tilesX int) noc.NodeID {
	tx, ty := r%tilesX, r/tilesX
	x0, y0 := tx*l.tileW, ty*l.tileH
	switch l.placement {
	case PlacementStagger:
		// Spread TSBs over distinct columns: walk the tile's columns by tile
		// row so no two regions in the same tile-column share a column. With
		// at most MeshX regions every TSB lands on a unique column.
		x := x0 + (ty*31+tx*17)%l.tileW
		if l.regions <= l.topo.MeshX {
			// Exact distinct-column assignment when there are at most MeshX
			// regions: region r gets column tx*tileW + (ty mod tileW).
			x = x0 + ty%l.tileW
		}
		y := y0 + l.tileH/2
		if y >= y0+l.tileH {
			y = y0 + l.tileH - 1
		}
		return l.topo.NodeAt(0, x, y)
	default:
		// Corner nearest the mesh center line.
		x := x0
		if centerDist2(x0+l.tileW-1, l.topo.MeshX) < centerDist2(x0, l.topo.MeshX) {
			x = x0 + l.tileW - 1
		}
		y := y0
		if centerDist2(y0+l.tileH-1, l.topo.MeshY) < centerDist2(y0, l.topo.MeshY) {
			y = y0 + l.tileH - 1
		}
		return l.topo.NodeAt(0, x, y)
	}
}

// centerDist2 is the squared distance of a coordinate from the mesh center
// line (between the two middle cells of a dim-wide axis), in half-cell units.
func centerDist2(c, dim int) int {
	d := 2*c - (dim - 1)
	return d * d
}

// Topology returns the shape this layout partitions.
func (l *RegionLayout) Topology() noc.Topology { return l.topo }

// Regions returns the region count.
func (l *RegionLayout) Regions() int { return l.regions }

// Placement returns the TSB placement policy.
func (l *RegionLayout) Placement() Placement { return l.placement }

// RegionOf returns the region index of a cache-layer node.
func (l *RegionLayout) RegionOf(d noc.NodeID) int {
	return l.regionOf[int(d)%l.topo.LayerSize()]
}

// TSBCore returns the core-layer TSB node of region r.
func (l *RegionLayout) TSBCore(r int) noc.NodeID { return l.tsbCore[r] }

// TSBCores returns all TSB nodes (one per region); the slice is shared, do
// not modify it.
func (l *RegionLayout) TSBCores() []noc.NodeID { return l.tsbCore }

// TSBMap returns the cache-node-to-TSB mapping in the form noc.NewRoutingTopo
// expects. The map is shared; do not modify it.
func (l *RegionLayout) TSBMap() map[noc.NodeID]noc.NodeID { return l.tsbMap }

// TSBOf returns the core-layer TSB serving cache node d.
func (l *RegionLayout) TSBOf(d noc.NodeID) noc.NodeID { return l.tsbMap[d] }

// RehomedTSBMap computes the graceful-degradation TSB assignment after the
// TSBs at the given core-layer nodes have failed: every region whose TSB
// died is re-homed onto the surviving TSB nearest its own (Manhattan
// distance, lowest node ID on ties — fully deterministic). It returns the
// new cache-node-to-TSB map in the noc.Routing format plus the number of
// regions that had to move, or an error when no TSB survives.
func (l *RegionLayout) RehomedTSBMap(failed map[noc.NodeID]bool) (map[noc.NodeID]noc.NodeID, int, error) {
	alive := make([]noc.NodeID, 0, l.regions)
	for _, t := range l.tsbCore {
		if !failed[t] {
			alive = append(alive, t)
		}
	}
	if len(alive) == 0 {
		return nil, 0, fmt.Errorf("core: all %d region TSBs have failed", l.regions)
	}
	homeOf := make([]noc.NodeID, l.regions)
	rehomed := 0
	for r := 0; r < l.regions; r++ {
		t := l.tsbCore[r]
		if !failed[t] {
			homeOf[r] = t
			continue
		}
		best := alive[0]
		bestDist := l.topo.SameLayerDistance(t, best)
		for _, cand := range alive[1:] {
			d := l.topo.SameLayerDistance(t, cand)
			if d < bestDist || (d == bestDist && cand < best) {
				best, bestDist = cand, d
			}
		}
		homeOf[r] = best
		rehomed++
	}
	layerSize := l.topo.LayerSize()
	m := make(map[noc.NodeID]noc.NodeID, l.topo.NumBanks())
	for node := layerSize; node < l.topo.NumNodes(); node++ {
		m[noc.NodeID(node)] = homeOf[l.regionOf[node%layerSize]]
	}
	return m, rehomed, nil
}
