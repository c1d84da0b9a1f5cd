package noc

import (
	"testing"
	"testing/quick"
)

// paper is the 8x8x2 shape of Table 1 and Figure 4, which every test in this
// package runs on unless it builds its own Topology.
var paper = DefaultTopology()

func TestNodeIDGeometry(t *testing.T) {
	// Table 1: 64 cores over 64 STT-RAM banks.
	if paper.NumNodes() != 128 || paper.NumCores() != 64 || paper.NumBanks() != 64 {
		t.Fatalf("default topology %v has %d nodes, %d cores, %d banks; want 128, 64, 64",
			paper, paper.NumNodes(), paper.NumCores(), paper.NumBanks())
	}
	cases := []struct {
		id          NodeID
		layer, x, y int
	}{
		{0, 0, 0, 0},
		{7, 0, 7, 0},
		{27, 0, 3, 3},
		{63, 0, 7, 7},
		{64, 1, 0, 0},
		{91, 1, 3, 3},
		{127, 1, 7, 7},
	}
	for _, c := range cases {
		if l, x, y := paper.Layer(c.id), paper.X(c.id), paper.Y(c.id); l != c.layer || x != c.x || y != c.y {
			t.Errorf("node %d = (layer %d, x %d, y %d), want (%d, %d, %d)",
				c.id, l, x, y, c.layer, c.x, c.y)
		}
		if got := paper.NodeAt(c.layer, c.x, c.y); got != c.id {
			t.Errorf("NodeAt(%d,%d,%d) = %d, want %d", c.layer, c.x, c.y, got, c.id)
		}
	}
	if paper.Below(27) != 91 || paper.Above(91) != 27 {
		t.Fatal("Below/Above mismatch for the paper's node 27/91 pair")
	}
}

func TestSameLayerDistancePaperExamples(t *testing.T) {
	// Figure 4: router 91 manages banks 75, 82, 89 — all two hops away;
	// router 90 manages 74, 81, 88.
	for _, d := range []NodeID{75, 82, 89} {
		if got := paper.SameLayerDistance(91, d); got != 2 {
			t.Errorf("distance(91,%d) = %d, want 2", d, got)
		}
	}
	for _, d := range []NodeID{74, 81, 88} {
		if got := paper.SameLayerDistance(90, d); got != 2 {
			t.Errorf("distance(90,%d) = %d, want 2", d, got)
		}
	}
}

func TestNeighborAndOpposite(t *testing.T) {
	if paper.Neighbor(0, PortWest) != -1 || paper.Neighbor(0, PortSouth) != -1 {
		t.Fatal("corner node should have no west/south neighbors")
	}
	if paper.Neighbor(0, PortEast) != 1 || paper.Neighbor(0, PortNorth) != 8 {
		t.Fatal("corner node east/north neighbors wrong")
	}
	if paper.Neighbor(0, PortDown) != 64 || paper.Neighbor(64, PortUp) != 0 {
		t.Fatal("vertical neighbors wrong")
	}
	if paper.Neighbor(0, PortUp) != -1 || paper.Neighbor(64, PortDown) != -1 {
		t.Fatal("vertical ports should not exist beyond the two layers")
	}
	for p := PortNorth; p < PortLocal; p++ {
		if p.Opposite().Opposite() != p {
			t.Errorf("Opposite not involutive for %s", p)
		}
	}
	if PortUp.Opposite() != PortDown || PortDown.Opposite() != PortUp {
		t.Fatal("vertical opposites wrong")
	}
}

// Property: Neighbor and Opposite are consistent — if B is A's neighbor via
// port p, then A is B's neighbor via p.Opposite().
func TestNeighborSymmetryProperty(t *testing.T) {
	f := func(rawNode uint8, rawPort uint8) bool {
		a := NodeID(int(rawNode) % paper.NumNodes())
		p := Port(int(rawPort) % int(PortLocal)) // cardinal ports
		b := paper.Neighbor(a, p)
		if b < 0 {
			return true
		}
		return paper.Neighbor(b, p.Opposite()) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestXYNextAndPath(t *testing.T) {
	// X first, then Y.
	if paper.XYNext(64, 67) != PortEast {
		t.Fatal("should move east first")
	}
	if paper.XYNext(64, 88) != PortNorth {
		t.Fatal("same column should move north")
	}
	if paper.XYNext(91, 75) != PortSouth {
		t.Fatal("same column should move south")
	}
	if paper.XYNext(91, 91) != PortLocal {
		t.Fatal("arrived should be local")
	}
	// Paper route: TSB entry 91 to bank 74 goes 91 -> 90 -> 82 -> 74.
	path := paper.XYPath(91, 74)
	want := []NodeID{91, 90, 82, 74}
	if len(path) != len(want) {
		t.Fatalf("path = %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
}

// Property: XYPath length equals Manhattan distance + 1 and each consecutive
// pair differs by exactly one hop.
func TestXYPathProperty(t *testing.T) {
	f := func(ra, rb uint8) bool {
		a := paper.BankNode(int(ra) % paper.NumBanks())
		b := paper.BankNode(int(rb) % paper.NumBanks())
		path := paper.XYPath(a, b)
		if len(path) != paper.SameLayerDistance(a, b)+1 {
			return false
		}
		for i := 1; i < len(path); i++ {
			if paper.SameLayerDistance(path[i-1], path[i]) != 1 {
				return false
			}
		}
		return path[0] == a && path[len(path)-1] == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestXYNextPanicsAcrossLayers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	paper.XYNext(0, 64)
}
