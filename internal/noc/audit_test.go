package noc

import (
	"errors"
	"strings"
	"testing"
)

// corrupt builds a fresh network, verifies it is self-consistent, applies the
// corruption, and asserts CheckInvariants reports a violation containing want.
func corrupt(t *testing.T, want string, mutate func(n *Network)) {
	t.Helper()
	n := mustNetwork(t, Config{})
	if err := n.CheckInvariants(); err != nil {
		t.Fatalf("fresh network violates invariants: %v", err)
	}
	mutate(n)
	err := n.CheckInvariants()
	if err == nil {
		t.Fatalf("corruption went undetected (want %q)", want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("violation %q does not mention %q", err, want)
	}
}

func TestAuditDetectsUnownedFlits(t *testing.T) {
	corrupt(t, "no owner", func(n *Network) {
		st := &n.routers[0].vcs[PortLocal*maxVCsPerPort]
		st.seq, st.n = 1, 1
	})
}

func TestAuditDetectsFlitsPastTail(t *testing.T) {
	corrupt(t, "past its packet's tail", func(n *Network) {
		st := &n.routers[0].vcs[PortLocal*maxVCsPerPort]
		st.pkt = &Packet{ID: 1, SizeFlits: AddrPacketFlits}
		st.seq, st.n = 0, 2
		// Keep the credit ledger consistent so the ownership check is what
		// fires, not conservation.
		n.routers[0].feeder[PortLocal].credits[0] -= 2
	})
}

func TestAuditDetectsCreditLeak(t *testing.T) {
	corrupt(t, "credits+buffered", func(n *Network) {
		n.routers[0].feeder[PortLocal].credits[0]--
	})
}

func TestAuditDetectsNegativeCredits(t *testing.T) {
	corrupt(t, "negative credits", func(n *Network) {
		// Conservation must hold (credits + buffered == depth) for the
		// negative-credit branch to be the one that fires.
		st := &n.routers[0].vcs[PortLocal*maxVCsPerPort]
		st.pkt = &Packet{ID: 1, SizeFlits: DataPacketFlits}
		st.seq, st.n = 0, DefaultBufDepth+1
		n.routers[0].feeder[PortLocal].credits[0] = -1
	})
}

// TestAcceptFlitRejectsMisorderedFlit: a VC holds one packet's flits in
// sequence order, so a body flit of another packet, or one that skips a
// sequence number, breaks the protocol and must panic where it arrives.
func TestAcceptFlitRejectsMisorderedFlit(t *testing.T) {
	for _, c := range []struct {
		name string
		pkt  func(owner *Packet) *Packet
		seq  int
	}{
		{"other packet", func(*Packet) *Packet { return &Packet{ID: 2, SizeFlits: DataPacketFlits} }, 1},
		{"skipped seq", func(owner *Packet) *Packet { return owner }, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			n := mustNetwork(t, Config{})
			r := n.Router(0)
			owner := &Packet{ID: 1, Kind: KindWriteReq, Src: 0, Dst: 64, SizeFlits: DataPacketFlits}
			r.acceptFlit(PortLocal, 0, owner, 0, 1, 0)
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "out of order") {
					t.Fatalf("misordered flit accepted (panic %q)", msg)
				}
			}()
			r.acceptFlit(PortLocal, 0, c.pkt(owner), c.seq, 2, 1)
		})
	}
}

func TestAuditDetectsBufferedFlitCounterDrift(t *testing.T) {
	corrupt(t, "buffered flits", func(n *Network) {
		n.routers[5].bufferedFlits++
	})
}

func TestAuditDetectsVCMaskDrift(t *testing.T) {
	corrupt(t, "VA mask", func(n *Network) {
		n.routers[5].vaMask ^= 1 << (PortEast*maxVCsPerPort + 1)
	})
	corrupt(t, "SA mask", func(n *Network) {
		n.routers[5].saMask ^= 1 << (PortLocal * maxVCsPerPort)
	})
}

func TestStepReturnsDeadlockErrorWithStalledDump(t *testing.T) {
	n := mustNetwork(t, Config{WatchdogCycles: 200})
	wedgeAndCheckDump(t, n, 64, 8, 40)
}

// TestDeadlockDumpOnSmallMesh: the audit and the stalled-packet dump walk the
// network's own node count, so a 4x4x2 mesh (32 nodes) reports every packet
// in flight instead of indexing past its last router.
func TestDeadlockDumpOnSmallMesh(t *testing.T) {
	r, err := NewRoutingTopo(Topology{MeshX: 4, MeshY: 4, Layers: 2}, PathAllTSVs, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := mustNetwork(t, Config{Routing: r, WatchdogCycles: 200})
	wedgeAndCheckDump(t, n, 16, 16, 24)
}

// wedgeAndCheckDump shuts the gate of node sink for good, injects count write
// requests into it from core nodes 0..sources-1, steps the network until the
// watchdog fires, and checks the *DeadlockError's dump covers every packet in
// flight with usable detail.
func wedgeAndCheckDump(t *testing.T, n *Network, sink NodeID, sources, count int) {
	t.Helper()
	n.SetDeliver(sink, func(*Packet, uint64) {})
	n.NIC(sink).SetGate(func(p *Packet, now uint64) bool { return false })
	for i := 0; i < count; i++ {
		n.Inject(&Packet{Kind: KindWriteReq, Src: NodeID(i % sources), Dst: sink}, 0)
	}
	var dl *DeadlockError
	for now := uint64(0); now < 5000; now++ {
		if err := n.Step(now); err != nil {
			if !errors.As(err, &dl) {
				t.Fatalf("Step returned %T, want *DeadlockError", err)
			}
			break
		}
	}
	if dl == nil {
		t.Fatal("watchdog never fired on a permanently blocked network")
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatalf("wedged network violates invariants: %v", err)
	}
	if dl.InFlight != n.InFlight() || dl.InFlight == 0 {
		t.Fatalf("deadlock reports %d in flight, network says %d", dl.InFlight, n.InFlight())
	}
	// A wormhole packet spread across several routers appears once per VC it
	// occupies, so compare distinct packets, not dump entries.
	ids := make(map[uint64]bool)
	for _, p := range dl.Stalled {
		ids[p.ID] = true
	}
	if len(ids) != dl.InFlight {
		t.Fatalf("packet dump covers %d distinct packets of %d in flight", len(ids), dl.InFlight)
	}
	if !strings.Contains(dl.Error(), "deadlock") {
		t.Fatalf("error text %q does not say deadlock", dl.Error())
	}
	// The dump must carry usable debugging detail.
	for _, p := range dl.Stalled {
		if p.Dst != sink {
			t.Fatalf("stalled packet bound for %d, all traffic targeted %d", p.Dst, sink)
		}
		if p.Where == "" {
			t.Fatalf("stalled packet %d has no location", p.ID)
		}
	}
}

func TestDegradedPortStillDelivers(t *testing.T) {
	// Kill-vs-degrade: a period-4 link is slow but alive, so traffic drains.
	n := mustNetwork(t, Config{WatchdogCycles: 500})
	var got int
	n.SetDeliver(2, func(*Packet, uint64) { got++ })
	if err := n.DegradePort(0, PortEast, 4); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		n.Inject(&Packet{Kind: KindReadReq, Src: 0, Dst: 2}, uint64(i))
	}
	drain(t, n, 5, 2000)
	if got != 5 {
		t.Fatalf("delivered %d of 5 packets over the degraded link", got)
	}
}

func TestFailPortValidation(t *testing.T) {
	n := mustNetwork(t, Config{})
	// Node 0 is the north-west corner: no west link exists.
	if err := n.FailPort(0, PortWest); err == nil {
		t.Fatal("expected error failing a non-existent link")
	}
	if err := n.FailPort(-1, PortEast); err == nil {
		t.Fatal("expected error for invalid node")
	}
}
