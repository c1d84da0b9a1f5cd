package cache

import (
	"slices"
	"testing"
	"testing/quick"

	"sttsim/internal/mem"
	"sttsim/internal/noc"
	"sttsim/internal/stats"
)

// paper is the address map of the paper's 8x8x2 system, which every test in
// this package runs on unless it builds its own map.
var paper = DefaultAddrMap()

func TestAddressMapping(t *testing.T) {
	if LineAddr(0x1000) != 0x1000>>LineShift {
		t.Fatal("LineAddr shift wrong")
	}
	if AddrOfLine(LineAddr(0x1000)) != 0x1000 {
		t.Fatal("AddrOfLine not inverse of LineAddr for aligned addresses")
	}
	// Consecutive lines stripe across banks.
	b0 := paper.HomeBank(AddrOfLine(100))
	b1 := paper.HomeBank(AddrOfLine(101))
	if (b0+1)%paper.NumBanks() != b1 {
		t.Fatalf("banks not striped: %d then %d", b0, b1)
	}
	if paper.HomeNode(AddrOfLine(100)) != noc.NodeID(b0)+64 {
		t.Fatal("HomeNode disagrees with HomeBank")
	}
}

func TestComposeAddr(t *testing.T) {
	for bank := 0; bank < paper.NumBanks(); bank += 7 {
		for line := uint64(0); line < 5; line++ {
			addr := paper.ComposeAddr(bank, line)
			if got := paper.HomeBank(addr); got != bank {
				t.Fatalf("ComposeAddr(%d, %d) landed in bank %d", bank, line, got)
			}
		}
	}
}

func TestMCNodeInterleaving(t *testing.T) {
	// Table 1: one memory controller at each corner node of the cache layer.
	mcs := paper.MCNodeList()
	if want := []noc.NodeID{64, 71, 120, 127}; !slices.Equal(mcs, want) {
		t.Fatalf("memory controllers at %v, want %v", mcs, want)
	}
	seen := map[noc.NodeID]bool{}
	for i := uint64(0); i < 1024; i++ {
		n := paper.MCNode(AddrOfLine(i * uint64(paper.NumBanks())))
		seen[n] = true
		if !slices.Contains(mcs, n) {
			t.Fatalf("MCNode returned non-controller node %d", n)
		}
	}
	if len(seen) != len(mcs) {
		t.Fatalf("only %d of %d MCs used", len(seen), len(mcs))
	}
}

func TestSetsFor(t *testing.T) {
	if got := SetsFor(mem.SRAM.CapacityMB); got != 512 {
		t.Fatalf("1MB bank has %d sets, want 512", got)
	}
	if got := SetsFor(mem.STTRAM.CapacityMB); got != 2048 {
		t.Fatalf("4MB bank has %d sets, want 2048", got)
	}
}

// testBank builds a controller on bank 0 (node 64) with the given tech.
func testBank(t *testing.T, tech mem.Tech) *BankController {
	t.Helper()
	return NewBankControllerMapped(64, mem.NewBank(tech), paper)
}

// bankAddr returns an address homed at bank 0 with the given per-bank line.
func bankAddr(line uint64) uint64 { return paper.ComposeAddr(0, line) }

// runUntil advances the controller until n packets have been emitted.
func runUntil(t *testing.T, bc *BankController, now *uint64, n int) []*noc.Packet {
	t.Helper()
	var out []*noc.Packet
	for limit := *now + 5000; *now < limit; *now++ {
		bc.Tick(*now)
		out = append(out, bc.Outbox()...)
		if len(out) >= n {
			return out
		}
	}
	t.Fatalf("only %d of %d packets emitted", len(out), n)
	return nil
}

func TestReadMissFetchesFromMemory(t *testing.T) {
	bc := testBank(t, mem.STTRAM)
	var now uint64
	addr := bankAddr(7)
	bc.HandlePacket(&noc.Packet{Kind: noc.KindReadReq, Addr: addr, Proc: 3, Src: 3, Injected: 1}, now)
	pkts := runUntil(t, bc, &now, 1)
	if pkts[0].Kind != noc.KindMemReq {
		t.Fatalf("expected MemReq, got %s", pkts[0].Kind)
	}
	if pkts[0].Dst != paper.MCNode(addr) {
		t.Fatalf("MemReq to %d, want %d", pkts[0].Dst, paper.MCNode(addr))
	}
	st := bc.Stats()
	if st.ReadMisses != 1 || st.ReadHits != 0 {
		t.Fatalf("misses/hits = %d/%d, want 1/0", st.ReadMisses, st.ReadHits)
	}
	// Memory responds; the fill is a bank write and then answers the core.
	bc.HandlePacket(&noc.Packet{Kind: noc.KindMemResp, Addr: addr}, now)
	pkts = runUntil(t, bc, &now, 1)
	if pkts[0].Kind != noc.KindReadResp || pkts[0].Dst != 3 {
		t.Fatalf("expected ReadResp to core 3, got %s to %d", pkts[0].Kind, pkts[0].Dst)
	}
	if pkts[0].ReqInjected != 1 {
		t.Fatalf("response ReqInjected = %d, want 1", pkts[0].ReqInjected)
	}
	// The background array write installs the line a write-service later.
	for end := now + 100; now < end; now++ {
		bc.Tick(now)
	}
	if bc.Stats().Fills != 1 {
		t.Fatal("fill not counted")
	}
	// A second read now hits.
	bc.HandlePacket(&noc.Packet{Kind: noc.KindReadReq, Addr: addr, Proc: 5, Src: 5}, now)
	pkts = runUntil(t, bc, &now, 1)
	if pkts[0].Kind != noc.KindReadResp || pkts[0].Dst != 5 {
		t.Fatalf("expected hit response to core 5, got %s to %d", pkts[0].Kind, pkts[0].Dst)
	}
	if bc.Stats().ReadHits != 1 {
		t.Fatal("hit not counted")
	}
}

func TestPreloadMakesReadsHit(t *testing.T) {
	bc := testBank(t, mem.STTRAM)
	addr := bankAddr(42)
	bc.Preload(LineAddr(addr))
	var now uint64
	bc.HandlePacket(&noc.Packet{Kind: noc.KindReadReq, Addr: addr, Proc: 0, Src: 0}, now)
	pkts := runUntil(t, bc, &now, 1)
	if pkts[0].Kind != noc.KindReadResp {
		t.Fatalf("preloaded read missed: got %s", pkts[0].Kind)
	}
	// Preload is idempotent.
	bc.Preload(LineAddr(addr))
	if bc.Stats().ReadHits != 1 {
		t.Fatal("hit not counted")
	}
}

func TestMSHRMergesConcurrentMisses(t *testing.T) {
	bc := testBank(t, mem.STTRAM)
	var now uint64
	addr := bankAddr(9)
	bc.HandlePacket(&noc.Packet{Kind: noc.KindReadReq, Addr: addr, Proc: 1, Src: 1}, now)
	pkts := runUntil(t, bc, &now, 1) // MemReq issued
	if pkts[0].Kind != noc.KindMemReq {
		t.Fatal("expected MemReq")
	}
	// A second read to the same line merges: no second MemReq, no bank
	// access.
	bc.HandlePacket(&noc.Packet{Kind: noc.KindReadReq, Addr: addr, Proc: 2, Src: 2}, now)
	if bc.Stats().MSHRMerges != 1 {
		t.Fatal("merge not counted")
	}
	bc.HandlePacket(&noc.Packet{Kind: noc.KindMemResp, Addr: addr}, now)
	pkts = runUntil(t, bc, &now, 2)
	dsts := map[noc.NodeID]bool{}
	for _, p := range pkts {
		if p.Kind != noc.KindReadResp {
			t.Fatalf("expected responses, got %s", p.Kind)
		}
		dsts[p.Dst] = true
	}
	if !dsts[1] || !dsts[2] {
		t.Fatalf("both waiters should be answered, got %v", dsts)
	}
}

func TestWriteAllocatesAndAcks(t *testing.T) {
	bc := testBank(t, mem.STTRAM)
	var now uint64
	addr := bankAddr(11)
	bc.HandlePacket(&noc.Packet{Kind: noc.KindWriteReq, Addr: addr, Proc: 4, Src: 4}, now)
	pkts := runUntil(t, bc, &now, 1)
	if pkts[0].Kind != noc.KindWriteAck || pkts[0].Dst != 4 {
		t.Fatalf("expected WriteAck to 4, got %s to %d", pkts[0].Kind, pkts[0].Dst)
	}
	st := bc.Stats()
	if st.WriteMisses != 1 {
		t.Fatal("write-allocate miss not counted")
	}
	// The line is now resident and dirty; a read hits without memory.
	bc.HandlePacket(&noc.Packet{Kind: noc.KindReadReq, Addr: addr, Proc: 4, Src: 4}, now)
	pkts = runUntil(t, bc, &now, 1)
	if pkts[0].Kind != noc.KindReadResp {
		t.Fatal("written line should be resident")
	}
}

func TestDirectoryInvalidatesSharers(t *testing.T) {
	bc := testBank(t, mem.STTRAM)
	var now uint64
	addr := bankAddr(13)
	bc.Preload(LineAddr(addr))
	// Cores 1 and 2 read the line (become sharers).
	for _, core := range []int{1, 2} {
		bc.HandlePacket(&noc.Packet{Kind: noc.KindReadReq, Addr: addr, Proc: core, Src: noc.NodeID(core)}, now)
		runUntil(t, bc, &now, 1)
	}
	// Core 3 writes it back: both sharers must be invalidated.
	bc.HandlePacket(&noc.Packet{Kind: noc.KindWriteReq, Addr: addr, Proc: 3, Src: 3}, now)
	pkts := runUntil(t, bc, &now, 3)
	var invs, acks int
	invDsts := map[noc.NodeID]bool{}
	for _, p := range pkts {
		switch p.Kind {
		case noc.KindInv:
			invs++
			invDsts[p.Dst] = true
		case noc.KindWriteAck:
			acks++
		}
	}
	if invs != 2 || !invDsts[1] || !invDsts[2] {
		t.Fatalf("expected invalidations to cores 1 and 2, got %d to %v", invs, invDsts)
	}
	if acks != 1 {
		t.Fatalf("expected 1 WriteAck, got %d", acks)
	}
	if bc.Stats().InvSent != 2 {
		t.Fatal("InvSent not counted")
	}
	// Ack ingestion is counted.
	bc.HandlePacket(&noc.Packet{Kind: noc.KindInvAck, Addr: addr, Proc: 1, Src: 1}, now)
	if bc.Stats().InvAcksRecv != 1 {
		t.Fatal("InvAck not counted")
	}
}

// TestDirectoryCoversEveryCore: on a 128-core mesh the presence vector is
// coarse, one bit per pair of cores. A write still invalidates a reader above
// core 63, and its pair-mate, but never the writer.
func TestDirectoryCoversEveryCore(t *testing.T) {
	am := NewAddrMap(noc.Topology{MeshX: 16, MeshY: 8, Layers: 2})
	bc := NewBankControllerMapped(am.Topology().BankNode(0), mem.NewBank(mem.STTRAM), am)
	var now uint64
	invsAfter := func(reader, writer int) []noc.NodeID {
		t.Helper()
		addr := am.ComposeAddr(0, uint64(100+reader))
		bc.Preload(LineAddr(addr))
		bc.HandlePacket(&noc.Packet{Kind: noc.KindReadReq, Addr: addr, Proc: reader, Src: noc.NodeID(reader)}, now)
		runUntil(t, bc, &now, 1)
		bc.HandlePacket(&noc.Packet{Kind: noc.KindWriteReq, Addr: addr, Proc: writer, Src: noc.NodeID(writer)}, now)
		var invs []noc.NodeID
		for _, p := range runUntil(t, bc, &now, 1) {
			if p.Kind == noc.KindInv {
				invs = append(invs, p.Dst)
			}
		}
		return invs
	}
	if got := invsAfter(100, 3); !slices.Equal(got, []noc.NodeID{100, 101}) {
		t.Fatalf("core 3 writing a line core 100 read invalidated %v, want [100 101]", got)
	}
	if got := invsAfter(2, 3); !slices.Equal(got, []noc.NodeID{2}) {
		t.Fatalf("core 3 writing a line core 2 read invalidated %v, want [2]", got)
	}
}

func TestEvictionWritesBackDirtyVictim(t *testing.T) {
	bc := testBank(t, mem.SRAM) // 512 sets: easier to collide
	var now uint64
	// Write Associativity+1 lines that map to the same set by construction:
	// same hashed set requires same (lineAddr/64 mod ...) — instead fill one
	// set by brute force: write many lines and count evictions.
	writes := 0
	for i := uint64(0); writes < 600*Associativity; i++ {
		addr := bankAddr(i)
		bc.HandlePacket(&noc.Packet{Kind: noc.KindWriteReq, Addr: addr, Proc: 0, Src: 0}, now)
		runUntil(t, bc, &now, 1)
		writes++
	}
	st := bc.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions after overfilling the bank")
	}
	if st.Writebacks == 0 {
		t.Fatal("dirty victims should be written back to memory")
	}
}

func TestGapHistogramObservesWriteShadow(t *testing.T) {
	bc := testBank(t, mem.STTRAM)
	h := stats.NewGapHistogram()
	bc.SetGapHistogram(h)
	bc.HandlePacket(&noc.Packet{Kind: noc.KindWriteReq, Addr: bankAddr(1), Proc: 0, Src: 0}, 100)
	bc.HandlePacket(&noc.Packet{Kind: noc.KindReadReq, Addr: bankAddr(2), Proc: 0, Src: 0}, 110)
	bc.HandlePacket(&noc.Packet{Kind: noc.KindReadReq, Addr: bankAddr(3), Proc: 0, Src: 0}, 150)
	if h.Total() != 2 {
		t.Fatalf("gap observations = %d, want 2", h.Total())
	}
	if h.Count(0) != 1 { // gap 10 -> <16 bin
		t.Fatal("10-cycle gap not in first bin")
	}
	if h.Count(2) != 1 { // gap 50 -> 33-66 bin
		t.Fatal("50-cycle gap not in 33-66 bin")
	}
	bc.ResetStats()
	if h.Total() != 0 {
		t.Fatal("ResetStats should clear the histogram")
	}
}

func TestBankControllerRejectsWrongLayer(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for core-layer node")
		}
	}()
	NewBankControllerMapped(3, mem.NewBank(mem.SRAM), paper)
}

func TestBankControllerRejectsUnknownKind(t *testing.T) {
	bc := testBank(t, mem.SRAM)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for TSAck at bank controller")
		}
	}()
	bc.HandlePacket(&noc.Packet{Kind: noc.KindTSAck}, 0)
}

// Property: every demand request eventually produces exactly one response to
// its requester, with memory responses supplied on demand.
func TestBankProtocolConservationProperty(t *testing.T) {
	f := func(ops []bool, lines []uint8) bool {
		if len(ops) > 40 {
			ops = ops[:40]
		}
		bc := testBank(t, mem.STTRAM)
		want := 0
		now := uint64(0)
		responses := 0
		memResps := []*noc.Packet{}
		for i, isWrite := range ops {
			line := uint64(7)
			if i < len(lines) {
				line = uint64(lines[i] % 16)
			}
			kind := noc.KindReadReq
			if isWrite {
				kind = noc.KindWriteReq
			}
			bc.HandlePacket(&noc.Packet{Kind: kind, Addr: bankAddr(line), Proc: i % 64, Src: noc.NodeID(i % 64)}, now)
			want++
		}
		for end := now + 20000; now < end; now++ {
			bc.Tick(now)
			for _, p := range bc.Outbox() {
				switch p.Kind {
				case noc.KindReadResp, noc.KindWriteAck:
					responses++
				case noc.KindMemReq:
					if p.SizeFlits == noc.AddrPacketFlits {
						memResps = append(memResps, &noc.Packet{Kind: noc.KindMemResp, Addr: p.Addr})
					}
				}
			}
			// Feed memory responses back with a fixed small delay.
			for _, mr := range memResps {
				bc.HandlePacket(mr, now)
			}
			memResps = memResps[:0]
			if responses == want {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
