package core

import (
	"testing"
	"testing/quick"

	"sttsim/internal/noc"
)

func TestWBEstimatorDefaults(t *testing.T) {
	e := NewWBEstimatorFor(WBWindow, paper.NumNodes())
	if e.window != WBWindow {
		t.Fatalf("default window = %d, want %d", e.window, WBWindow)
	}
	if NewWBEstimatorFor(0, paper.NumNodes()).window != 1 {
		t.Fatal("non-positive window should clamp to 1")
	}
}

func TestWBEstimatorTagsEveryNth(t *testing.T) {
	e := NewWBEstimatorFor(4, paper.NumNodes())
	tagged := 0
	for i := 0; i < 40; i++ {
		p := &noc.Packet{Kind: noc.KindReadReq, Dst: 75}
		e.MaybeTag(91, p, uint64(i))
		if p.Tagged {
			tagged++
		}
	}
	if tagged != 10 {
		t.Fatalf("tagged %d of 40 with window 4, want 10", tagged)
	}
	// Counters are per child: a different bank has its own window.
	p := &noc.Packet{Kind: noc.KindReadReq, Dst: 82}
	e.MaybeTag(91, p, 100)
	if p.Tagged {
		t.Fatal("first packet to a fresh child must not be tagged (window 4)")
	}
}

func TestRCAEstimatorQuantization(t *testing.T) {
	l := mustLayout(t, 4, PlacementCorner)
	routing, err := noc.NewRoutingTopo(paper, noc.PathRegionTSBs, l.TSBMap())
	if err != nil {
		t.Fatal(err)
	}
	net, err := noc.NewNetwork(noc.Config{Routing: routing, WideTSBs: l.TSBCores()})
	if err != nil {
		t.Fatal(err)
	}
	e := NewRCAEstimator(net)
	for now := uint64(0); now < 10; now++ {
		e.Tick(now)
	}
	// All aggregates must be 8-bit quantized values in [0,1].
	for id := noc.NodeID(0); id < noc.NodeID(paper.NumNodes()); id++ {
		v := e.agg[id]
		if v < 0 || v > 1 {
			t.Fatalf("aggregate out of range at %d: %f", id, v)
		}
		q := v * 255
		if diff := q - float64(int(q+0.5)); diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("aggregate at %d not 8-bit quantized: %f", id, v)
		}
	}
}

func TestParentChildrenCountsByHops(t *testing.T) {
	l := mustLayout(t, 4, PlacementCorner)
	for hops := 1; hops <= 3; hops++ {
		pm, err := BuildParentMap(l, hops)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		maxKids := 0
		for _, parent := range pm.Parents() {
			kids := len(pm.Children(parent))
			total += kids
			// Core-layer TSB parents absorb everything closer than H hops;
			// only cache-layer parents obey the geometric bound.
			if paper.Layer(parent) == 1 && kids > maxKids {
				maxKids = kids
			}
		}
		if total != paper.NumBanks() {
			t.Fatalf("hops=%d: %d children total, want 64", hops, total)
		}
		// On an X-Y route from the TSB, a router manages at most hops+1
		// banks at distance exactly `hops` (the paper: at H=3 "each parent
		// node has four child nodes").
		if maxKids > hops+1 {
			t.Fatalf("hops=%d: a parent manages %d children, want <= %d", hops, maxKids, hops+1)
		}
	}
}

func TestSixteenRegionParentsAreClose(t *testing.T) {
	// Figure 12's explanation: with 16 regions each region has only 4 banks
	// and parent-child distances collapse, shrinking re-ordering opportunity.
	l := mustLayout(t, 16, PlacementCorner)
	pm, err := BuildParentMap(l, DefaultHops)
	if err != nil {
		t.Fatal(err)
	}
	coreParents := 0
	for _, parent := range pm.Parents() {
		if paper.Layer(parent) == 0 {
			coreParents += len(pm.Children(parent))
		}
	}
	// With 2x2 regions, most banks sit closer than 2 hops to the TSB entry,
	// so the core-layer TSB node manages the bulk of them.
	if coreParents < paper.NumBanks()/2 {
		t.Fatalf("16 regions: only %d banks managed from the core layer; expected most", coreParents)
	}
}

// Property: the arbiter never classifies non-demand traffic or other
// parents' children as delayed, for any estimator and time.
func TestArbiterScopeProperty(t *testing.T) {
	l := mustLayout(t, 4, PlacementCorner)
	pm, err := BuildParentMap(l, DefaultHops)
	if err != nil {
		t.Fatal(err)
	}
	a := NewBankAwareArbiter(pm, SSEstimator{}, 3, 33)
	// Make every bank look busy far into the future.
	for d := paper.BankNode(0); d < noc.NodeID(paper.NumNodes()); d++ {
		a.OnForward(pm.ParentOf(d), &noc.Packet{Kind: noc.KindWriteReq, Dst: d}, 0)
	}
	f := func(at uint8, dst uint8, kind uint8, now uint16) bool {
		kinds := []noc.Kind{noc.KindReadResp, noc.KindWriteAck, noc.KindInv,
			noc.KindInvAck, noc.KindMemReq, noc.KindMemResp, noc.KindTSAck}
		router := noc.NodeID(int(at) % paper.NumNodes())
		bank := paper.BankNode(int(dst) % paper.NumBanks())
		// Non-demand kinds: always normal priority everywhere.
		k := kinds[int(kind)%len(kinds)]
		if a.Priority(router, &noc.Packet{Kind: k, Dst: bank}, uint64(now)) != PriorityNormal {
			return false
		}
		// Demand requests at a router that is not the parent: normal.
		if router != pm.ParentOf(bank) {
			if a.Priority(router, &noc.Packet{Kind: noc.KindWriteReq, Dst: bank}, uint64(now)) != PriorityNormal {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: busyUntil is monotone non-decreasing under any forward sequence.
func TestBusyTableMonotoneProperty(t *testing.T) {
	l := mustLayout(t, 4, PlacementCorner)
	pm, _ := BuildParentMap(l, DefaultHops)
	f := func(steps []uint8) bool {
		a := NewBankAwareArbiter(pm, SSEstimator{}, 3, 33)
		now := uint64(0)
		prev := uint64(0)
		for _, s := range steps {
			now += uint64(s % 7)
			kind := noc.KindReadReq
			if s%2 == 0 {
				kind = noc.KindWriteReq
			}
			a.OnForward(91, &noc.Packet{Kind: kind, Dst: 75}, now)
			if bu := a.BusyUntil(75); bu < prev {
				return false
			} else {
				prev = bu
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
