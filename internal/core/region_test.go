package core

import (
	"testing"
	"testing/quick"

	"sttsim/internal/noc"
)

// paper is the 8x8x2 shape of Figure 4, which every test in this package
// runs on.
var paper = noc.DefaultTopology()

func mustLayout(t *testing.T, regions int, p Placement) *RegionLayout {
	t.Helper()
	l, err := NewRegionLayoutTopo(paper, regions, p)
	if err != nil {
		t.Fatalf("NewRegionLayoutTopo(%d, %s): %v", regions, p, err)
	}
	return l
}

func TestRegionLayoutRejectsBadCounts(t *testing.T) {
	for _, r := range []int{0, 1, 2, 3, 5, 7, 32, 64} {
		if _, err := NewRegionLayoutTopo(paper, r, PlacementCorner); err == nil {
			t.Errorf("expected error for %d regions", r)
		}
	}
}

func TestFourRegionCornerMatchesPaper(t *testing.T) {
	l := mustLayout(t, 4, PlacementCorner)
	// Section 3.4 / Figure 4: region 0's TSB is core node 27, descending to
	// cache router 91; the other quadrant TSBs are its mirror images.
	want := []noc.NodeID{27, 28, 35, 36}
	for r, w := range want {
		if got := l.TSBCore(r); got != w {
			t.Errorf("TSB of region %d = %d, want %d", r, got, w)
		}
	}
	// Banks 75, 82, 89 (region 0, Figure 5) are all served through node 27.
	for _, d := range []noc.NodeID{75, 82, 89, 91} {
		if got := l.TSBOf(d); got != 27 {
			t.Errorf("TSB of bank %d = %d, want 27", d, got)
		}
		if l.RegionOf(d) != 0 {
			t.Errorf("region of bank %d = %d, want 0", d, l.RegionOf(d))
		}
	}
	// A bank in the opposite quadrant.
	if got := l.TSBOf(127); got != 36 {
		t.Errorf("TSB of bank 127 = %d, want 36", got)
	}
}

func TestRegionPartitionIsComplete(t *testing.T) {
	for _, regions := range []int{4, 8, 16} {
		for _, p := range []Placement{PlacementCorner, PlacementStagger} {
			l := mustLayout(t, regions, p)
			counts := make(map[int]int)
			for b := 0; b < paper.NumBanks(); b++ {
				d := paper.BankNode(b)
				r := l.RegionOf(d)
				if r < 0 || r >= regions {
					t.Fatalf("%d/%s: region of %d out of range: %d", regions, p, d, r)
				}
				counts[r]++
				// The TSB must serve the bank's own region.
				tsb := l.TSBOf(d)
				if paper.Layer(tsb) != 0 {
					t.Fatalf("%d/%s: TSB %d not in core layer", regions, p, tsb)
				}
				if l.RegionOf(paper.Below(tsb)) != r {
					t.Fatalf("%d/%s: TSB %d of bank %d lies in region %d, want %d",
						regions, p, tsb, d, l.RegionOf(paper.Below(tsb)), r)
				}
			}
			per := paper.NumBanks() / regions
			for r := 0; r < regions; r++ {
				if counts[r] != per {
					t.Fatalf("%d/%s: region %d has %d banks, want %d", regions, p, r, counts[r], per)
				}
			}
		}
	}
}

func TestStaggerUsesDistinctColumns(t *testing.T) {
	for _, regions := range []int{4, 8} {
		l := mustLayout(t, regions, PlacementStagger)
		cols := make(map[int]bool)
		for _, tsb := range l.TSBCores() {
			if cols[paper.X(tsb)] {
				t.Fatalf("%d regions: column %d reused by staggered TSBs", regions, paper.X(tsb))
			}
			cols[paper.X(tsb)] = true
		}
	}
}

func TestCornerTSBsHugTheCenter(t *testing.T) {
	l := mustLayout(t, 4, PlacementCorner)
	for _, tsb := range l.TSBCores() {
		if x, y := paper.X(tsb), paper.Y(tsb); x < 3 || x > 4 || y < 3 || y > 4 {
			t.Errorf("corner TSB %d at (%d,%d) is not adjacent to the center", tsb, x, y)
		}
	}
}

func TestParentMapPaperExamples(t *testing.T) {
	l := mustLayout(t, 4, PlacementCorner)
	pm, err := BuildParentMap(l, DefaultHops)
	if err != nil {
		t.Fatal(err)
	}
	// Section 3.4: "router 91 manages traffic to cache bank 75, 82 and 89
	// and router 90 manages traffic to cache banks 74, 81 and 88".
	for _, c := range []struct {
		child  noc.NodeID
		parent noc.NodeID
	}{{75, 91}, {82, 91}, {89, 91}, {74, 90}, {81, 90}, {88, 90}} {
		if got := pm.ParentOf(c.child); got != c.parent {
			t.Errorf("parent of %d = %d, want %d", c.child, got, c.parent)
		}
	}
	// "The innermost corner three nodes in each region ... (ex. nodes 83, 90
	// and 91 of region 0) are managed by the region-TSB node vertically
	// above in the core layer (i.e. node 27)".
	for _, d := range []noc.NodeID{83, 90, 91} {
		if got := pm.ParentOf(d); got != 27 {
			t.Errorf("parent of %d = %d, want core TSB node 27", d, got)
		}
	}
	kids := pm.Children(91)
	if len(kids) != 3 {
		t.Fatalf("children of 91 = %v, want 3 banks", kids)
	}
}

func TestParentMapHopsValidation(t *testing.T) {
	l := mustLayout(t, 4, PlacementCorner)
	if _, err := BuildParentMap(l, 0); err == nil {
		t.Fatal("expected error for zero hops")
	}
}

// Property: every bank has exactly one parent; the parent is either a
// cache-layer node exactly H hops up the TSB route or the core TSB node; and
// the union of all children covers all 64 banks.
func TestParentMapCoverageProperty(t *testing.T) {
	f := func(rr, rp, rh uint8) bool {
		regionOpts := []int{4, 8, 16}
		regions := regionOpts[int(rr)%len(regionOpts)]
		placement := Placement(int(rp) % 2)
		hops := 1 + int(rh)%3
		l, err := NewRegionLayoutTopo(paper, regions, placement)
		if err != nil {
			return false
		}
		pm, err := BuildParentMap(l, hops)
		if err != nil {
			return false
		}
		covered := 0
		for _, parent := range pm.Parents() {
			for _, child := range pm.Children(parent) {
				covered++
				if pm.ParentOf(child) != parent {
					return false
				}
				if paper.Layer(parent) == 0 {
					// Core TSB parent: the child must be closer than H hops
					// to the TSB entry.
					if parent != l.TSBOf(child) {
						return false
					}
					if paper.SameLayerDistance(paper.Below(parent), child) >= hops {
						return false
					}
				} else {
					if paper.SameLayerDistance(parent, child) != hops {
						return false
					}
					// Parent lies on the TSB-entry-to-child X-Y route.
					path := paper.XYPath(paper.Below(l.TSBOf(child)), child)
					found := false
					for _, n := range path {
						if n == parent {
							found = true
							break
						}
					}
					if !found {
						return false
					}
				}
			}
		}
		return covered == paper.NumBanks()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
