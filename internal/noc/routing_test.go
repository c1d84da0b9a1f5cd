package noc

import (
	"testing"
	"testing/quick"
)

// paperTSBMap reproduces the paper's 4-region corner layout: the cache layer
// is split into quadrants and each quadrant's TSB sits at the quadrant corner
// nearest the mesh center (core node 27 serves region 0 per Section 3.4).
func paperTSBMap() map[NodeID]NodeID {
	m := make(map[NodeID]NodeID, paper.NumBanks())
	for b := 0; b < paper.NumBanks(); b++ {
		d := paper.BankNode(b)
		x, y := paper.X(d), paper.Y(d)
		switch {
		case x < 4 && y < 4:
			m[d] = 27 // (3,3)
		case x >= 4 && y < 4:
			m[d] = 28 // (4,3)
		case x < 4 && y >= 4:
			m[d] = 35 // (3,4)
		default:
			m[d] = 36 // (4,4)
		}
	}
	return m
}

func mustRouting(t *testing.T, mode RequestPathMode, tsb map[NodeID]NodeID) *Routing {
	t.Helper()
	r, err := NewRoutingTopo(paper, mode, tsb)
	if err != nil {
		t.Fatalf("NewRoutingTopo: %v", err)
	}
	return r
}

func nodesEqual(a, b []NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestNewRoutingValidation(t *testing.T) {
	if _, err := NewRoutingTopo(paper, PathRegionTSBs, nil); err == nil {
		t.Fatal("expected error for missing TSB map")
	}
	m := paperTSBMap()
	m[64] = 64 // cache-layer node is not a valid TSB
	if _, err := NewRoutingTopo(paper, PathRegionTSBs, m); err == nil {
		t.Fatal("expected error for cache-layer TSB node")
	}
	if _, err := NewRoutingTopo(paper, PathAllTSVs, nil); err != nil {
		t.Fatalf("allTSV should not need a map: %v", err)
	}
}

func TestUnrestrictedRequestRouteIsZXY(t *testing.T) {
	r := mustRouting(t, PathAllTSVs, nil)
	// Paper example: core 63 to cache node 64+0 descends at 63 to 127, then
	// X-Y in the cache layer to 64.
	p := &Packet{Kind: KindReadReq, Src: 63, Dst: 64}
	path := r.Path(p)
	if path[0] != 63 || path[1] != 127 {
		t.Fatalf("path should descend immediately: %v", path)
	}
	want := append([]NodeID{63}, paper.XYPath(127, 64)...)
	if !nodesEqual(path, want) {
		t.Fatalf("path = %v, want %v", path, want)
	}
}

func TestRegionRequestRouteViaTSB(t *testing.T) {
	r := mustRouting(t, PathRegionTSBs, paperTSBMap())
	// Paper example (Figure 5): requests from cores 7, 46 and 48 to banks
	// 89, 82 and 75 are all X-Y routed to core node 27, descend the TSB to
	// 91, and are then X-Y routed in the cache layer.
	for _, c := range []struct {
		src, dst NodeID
	}{{7, 89}, {46, 82}, {48, 75}} {
		p := &Packet{Kind: KindWriteReq, Src: c.src, Dst: c.dst}
		path := r.Path(p)
		saw27, saw91 := false, false
		for _, n := range path {
			if n == 27 {
				saw27 = true
			}
			if n == 91 {
				saw91 = true
			}
			if paper.Layer(n) == 1 && !saw91 {
				t.Fatalf("src %d: entered cache layer before TSB router 91: %v", c.src, path)
			}
		}
		if !saw27 || !saw91 {
			t.Fatalf("src %d -> dst %d: path %v must pass through 27 and 91", c.src, c.dst, path)
		}
	}
}

func TestResponsesUseOwnTSV(t *testing.T) {
	r := mustRouting(t, PathRegionTSBs, paperTSBMap())
	// Responses are unrestricted: bank 89 replies to core 7 by ascending its
	// own TSV (89 -> 25) and X-Y routing in the core layer.
	p := &Packet{Kind: KindReadResp, Src: 89, Dst: 7}
	path := r.Path(p)
	if path[1] != 25 {
		t.Fatalf("response should ascend immediately at 89 -> 25, got %v", path)
	}
	want := append([]NodeID{89}, paper.XYPath(25, 7)...)
	if !nodesEqual(path, want) {
		t.Fatalf("path = %v, want %v", path, want)
	}
}

func TestCoherenceUnrestrictedUnderRegionMode(t *testing.T) {
	r := mustRouting(t, PathRegionTSBs, paperTSBMap())
	// An invalidation ack (core -> cache coherence) descends through the
	// core's own TSV, not the region TSB.
	p := &Packet{Kind: KindInvAck, Src: 5, Dst: 100}
	path := r.Path(p)
	if path[1] != 69 {
		t.Fatalf("coherence should descend at source (5 -> 69), got %v", path)
	}
}

func TestMemTrafficStaysInCacheLayer(t *testing.T) {
	r := mustRouting(t, PathRegionTSBs, paperTSBMap())
	p := &Packet{Kind: KindMemReq, Src: 91, Dst: 64}
	for _, n := range r.Path(p) {
		if paper.Layer(n) != 1 {
			t.Fatalf("memory request left the cache layer: %v", r.Path(p))
		}
	}
}

func TestLocalDeliveryRoute(t *testing.T) {
	r := mustRouting(t, PathAllTSVs, nil)
	p := &Packet{Kind: KindReadReq, Src: 3, Dst: 3}
	if r.NextPort(3, p) != PortLocal {
		t.Fatal("packet at destination should eject")
	}
}

// Property: every (src, dst, kind) combination yields a loop-free route that
// terminates at dst, under both path modes, and region-mode demand requests
// always enter the cache layer through their region's TSB column.
func TestRoutingTerminationProperty(t *testing.T) {
	modes := []*Routing{
		mustRouting(t, PathAllTSVs, nil),
		mustRouting(t, PathRegionTSBs, paperTSBMap()),
	}
	ls := paper.LayerSize()
	f := func(rs, rd, rk uint8, regionMode bool) bool {
		kinds := []Kind{KindReadReq, KindWriteReq, KindReadResp, KindWriteAck, KindInv, KindInvAck, KindTSAck}
		k := kinds[int(rk)%len(kinds)]
		var src, dst NodeID
		switch k {
		case KindReadReq, KindWriteReq:
			src = NodeID(int(rs) % ls)
			dst = paper.BankNode(int(rd) % ls)
		case KindReadResp, KindWriteAck, KindInv:
			src = paper.BankNode(int(rs) % ls)
			dst = NodeID(int(rd) % ls)
		case KindInvAck:
			src = NodeID(int(rs) % ls)
			dst = paper.BankNode(int(rd) % ls)
		default: // TSAck: cache layer to cache or core layer
			src = paper.BankNode(int(rs) % ls)
			dst = NodeID(int(rd) % paper.NumNodes())
		}
		if src == dst {
			return true
		}
		r := modes[0]
		if regionMode {
			r = modes[1]
		}
		p := &Packet{Kind: k, Src: src, Dst: dst}
		path := r.Path(p)
		if path[len(path)-1] != dst {
			return false
		}
		seen := make(map[NodeID]bool, len(path))
		for _, n := range path {
			if seen[n] {
				return false
			}
			seen[n] = true
		}
		if regionMode && (k == KindReadReq || k == KindWriteReq) {
			// Must descend exactly at the TSB node.
			for i := 1; i < len(path); i++ {
				if paper.Layer(path[i]) == 1 && paper.Layer(path[i-1]) == 0 {
					return path[i-1] == r.TSBOf(dst)
				}
			}
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
