package cpu

import (
	"testing"
	"testing/quick"

	"sttsim/internal/cache"
	"sttsim/internal/noc"
)

// paper is the address map of the paper's 8x8x2 system, which every test in
// this package runs on.
var paper = cache.DefaultAddrMap()

// newCore builds core id of the paper's system.
func newCore(id int, gen Generator) *Core { return NewCoreMapped(id, gen, paper) }

// scriptGen replays a fixed access list, then idles.
type scriptGen struct {
	script []Access
	pos    int
}

func (g *scriptGen) Next() Access {
	if g.pos >= len(g.script) {
		return Access{Kind: AccessNone}
	}
	a := g.script[g.pos]
	g.pos++
	return a
}

func TestNewCoreValidation(t *testing.T) {
	for _, id := range []int{-1, 64, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for core id %d", id)
				}
			}()
			newCore(id, &scriptGen{})
		}()
	}
	c := newCore(5, &scriptGen{})
	if c.ID() != 5 || c.Node() != 5 {
		t.Fatal("id/node mismatch")
	}
}

func TestNonMemoryIPCIsTwo(t *testing.T) {
	c := newCore(0, &scriptGen{}) // empty script: all AccessNone
	for now := uint64(0); now < 100; now++ {
		c.Tick(now)
	}
	// 2-wide with a one-cycle fill lag: effectively 2 IPC steady state.
	if got := c.Committed(); got < 190 || got > 200 {
		t.Fatalf("committed %d instructions in 100 cycles, want ~198", got)
	}
}

func TestSerializingLoadBlocksIssue(t *testing.T) {
	addr := paper.ComposeAddr(3, 10)
	c := newCore(0, &scriptGen{script: []Access{
		{Kind: AccessRead, Addr: addr, Serialize: true},
	}})
	for now := uint64(0); now < 50; now++ {
		c.Tick(now)
	}
	out := c.Outbox()
	if len(out) != 1 || out[0].Kind != noc.KindReadReq {
		t.Fatalf("expected one ReadReq, got %v", out)
	}
	if out[0].Dst != paper.HomeNode(addr) {
		t.Fatalf("request to %d, want %d", out[0].Dst, paper.HomeNode(addr))
	}
	blockedAt := c.Committed()
	// No response: the core must stay blocked.
	for now := uint64(50); now < 100; now++ {
		c.Tick(now)
	}
	if c.Committed() != blockedAt {
		t.Fatal("core committed instructions while blocked on a serializing load")
	}
	if c.Stats().StallSerial == 0 {
		t.Fatal("serial stalls not counted")
	}
	// The response unblocks it.
	c.OnPacket(&noc.Packet{Kind: noc.KindReadResp, Addr: addr}, 100)
	for now := uint64(100); now < 150; now++ {
		c.Tick(now)
	}
	if c.Committed() <= blockedAt {
		t.Fatal("core did not resume after the load returned")
	}
}

func TestPostedWritesDoNotBlock(t *testing.T) {
	script := make([]Access, 10)
	for i := range script {
		script[i] = Access{Kind: AccessWrite, Addr: paper.ComposeAddr(i, 5)}
	}
	c := newCore(1, &scriptGen{script: script})
	for now := uint64(0); now < 100; now++ {
		c.Tick(now)
	}
	if got := c.Committed(); got < 180 {
		t.Fatalf("stores should be posted; committed only %d", got)
	}
	writes := 0
	for _, p := range c.Outbox() {
		if p.Kind == noc.KindWriteReq {
			writes++
			if !p.IsBankWrite {
				t.Fatal("write requests must be flagged as bank writes")
			}
		}
	}
	if writes != 10 {
		t.Fatalf("issued %d writes, want 10", writes)
	}
}

func TestStoreBufferLimitStallsIssue(t *testing.T) {
	script := make([]Access, MaxL1MSHRs+10)
	for i := range script {
		script[i] = Access{Kind: AccessWrite, Addr: paper.ComposeAddr(i%64, uint64(i))}
	}
	c := newCore(2, &scriptGen{script: script})
	for now := uint64(0); now < 200; now++ {
		c.Tick(now)
	}
	writes := 0
	for _, p := range c.Outbox() {
		if p.Kind == noc.KindWriteReq {
			writes++
		}
	}
	if writes != MaxL1MSHRs {
		t.Fatalf("issued %d writes without acks, want the MSHR limit %d", writes, MaxL1MSHRs)
	}
	if c.Stats().StallMSHR == 0 {
		t.Fatal("MSHR stalls not counted")
	}
	// Acks free slots.
	for i := 0; i < 10; i++ {
		c.OnPacket(&noc.Packet{Kind: noc.KindWriteAck}, 200)
	}
	for now := uint64(200); now < 260; now++ {
		c.Tick(now)
	}
	more := 0
	for _, p := range c.Outbox() {
		if p.Kind == noc.KindWriteReq {
			more++
		}
	}
	if more != 10 {
		t.Fatalf("after acks, %d more writes issued, want 10", more)
	}
}

func TestLoadMergeToSameLine(t *testing.T) {
	addr := paper.ComposeAddr(4, 20)
	c := newCore(3, &scriptGen{script: []Access{
		{Kind: AccessRead, Addr: addr},
		{Kind: AccessRead, Addr: addr},
		{Kind: AccessRead, Addr: addr + 4}, // same line (offset within 128B)
	}})
	for now := uint64(0); now < 50; now++ {
		c.Tick(now)
	}
	reqs := 0
	for _, p := range c.Outbox() {
		if p.Kind == noc.KindReadReq {
			reqs++
		}
	}
	if reqs != 1 {
		t.Fatalf("issued %d requests for one line, want 1 (merged)", reqs)
	}
	if c.Stats().ReadMerges != 2 {
		t.Fatalf("merges = %d, want 2", c.Stats().ReadMerges)
	}
	// One response completes all three loads; the core finishes the script.
	c.OnPacket(&noc.Packet{Kind: noc.KindReadResp, Addr: addr}, 50)
	for now := uint64(50); now < 100; now++ {
		c.Tick(now)
	}
	if c.Committed() < 3 {
		t.Fatal("merged loads never committed")
	}
}

func TestInvalidationAcked(t *testing.T) {
	c := newCore(6, &scriptGen{})
	c.OnPacket(&noc.Packet{Kind: noc.KindInv, Src: 91, Addr: 0x1000}, 5)
	out := c.Outbox()
	if len(out) != 1 || out[0].Kind != noc.KindInvAck || out[0].Dst != 91 {
		t.Fatalf("expected InvAck to 91, got %v", out)
	}
	if c.Stats().InvsReceived != 1 {
		t.Fatal("invalidation not counted")
	}
}

func TestOneMemOpPerCycle(t *testing.T) {
	// Two memory ops fetched in the same cycle: only one issues per cycle
	// (Table 1).
	c := newCore(7, &scriptGen{script: []Access{
		{Kind: AccessWrite, Addr: paper.ComposeAddr(0, 1)},
		{Kind: AccessWrite, Addr: paper.ComposeAddr(1, 1)},
	}})
	c.Tick(0)
	if got := len(c.Outbox()); got != 1 {
		t.Fatalf("cycle 0 issued %d mem ops, want 1", got)
	}
	c.Tick(1)
	if got := len(c.Outbox()); got != 1 {
		t.Fatalf("cycle 1 issued %d mem ops, want 1", got)
	}
}

func TestResetStatsKeepsArchitecturalState(t *testing.T) {
	addr := paper.ComposeAddr(2, 2)
	c := newCore(8, &scriptGen{script: []Access{{Kind: AccessRead, Addr: addr, Serialize: true}}})
	for now := uint64(0); now < 20; now++ {
		c.Tick(now)
	}
	c.ResetStats()
	if c.Committed() != 0 {
		t.Fatal("stats not reset")
	}
	// Still blocked on the load; the response must still unblock it.
	c.OnPacket(&noc.Packet{Kind: noc.KindReadResp, Addr: addr}, 20)
	for now := uint64(20); now < 40; now++ {
		c.Tick(now)
	}
	if c.Committed() == 0 {
		t.Fatal("core lost its blocked-load state across ResetStats")
	}
}

// Property: a core fed random accesses with an echo service (every request
// answered after a fixed delay) never deadlocks and commits everything.
func TestCoreProgressProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) > 60 {
			raw = raw[:60]
		}
		var script []Access
		for _, b := range raw {
			switch b % 4 {
			case 0:
				script = append(script, Access{Kind: AccessRead,
					Addr: paper.ComposeAddr(int(b), uint64(b)), Serialize: b%8 == 0})
			case 1:
				script = append(script, Access{Kind: AccessWrite,
					Addr: paper.ComposeAddr(int(b), uint64(b))})
			default:
				script = append(script, Access{Kind: AccessNone})
			}
		}
		c := newCore(0, &scriptGen{script: script})
		type echo struct {
			p  *noc.Packet
			at uint64
		}
		var pendingEcho []echo
		for now := uint64(0); now < 5000; now++ {
			c.Tick(now)
			for _, p := range c.Outbox() {
				resp := noc.KindReadResp
				if p.Kind == noc.KindWriteReq {
					resp = noc.KindWriteAck
				}
				pendingEcho = append(pendingEcho, echo{
					p:  &noc.Packet{Kind: resp, Addr: p.Addr},
					at: now + 30,
				})
			}
			kept := pendingEcho[:0]
			for _, e := range pendingEcho {
				if e.at <= now {
					c.OnPacket(e.p, now)
				} else {
					kept = append(kept, e)
				}
			}
			pendingEcho = kept
			if c.Committed() >= uint64(len(script)) {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
