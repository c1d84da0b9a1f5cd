// Package cpu models the processor cores of Table 1: 3GHz, 2-wide
// fetch/commit with a 128-entry instruction window (ROB), at most one memory
// operation issued per cycle, 32 outstanding L1 misses (MSHRs), posted
// stores, and loads that block retirement until their L2 response returns.
// The instruction stream comes from a workload Generator (implemented in
// internal/workload from the paper's Table 3 characterization).
package cpu

import (
	"fmt"

	"sttsim/internal/cache"
	"sttsim/internal/noc"
)

// Microarchitecture parameters (Table 1).
const (
	ROBEntries  = 128
	IssueWidth  = 2
	CommitWidth = 2
	MaxL1MSHRs  = 32
)

// AccessKind classifies one instruction's memory behavior after the L1
// filter: most instructions never reach the L2.
type AccessKind uint8

const (
	// AccessNone is a non-memory instruction or an L1 hit.
	AccessNone AccessKind = iota
	// AccessRead is a load that misses the L1 and reads the L2.
	AccessRead
	// AccessWrite is an L1 dirty writeback (or write fetch) into the L2.
	AccessWrite
)

// Access is one instruction's L2-visible behavior.
type Access struct {
	Kind AccessKind
	Addr uint64
	// Serialize marks a load that heads a dependence chain: the core stops
	// issuing until its data returns.
	Serialize bool
}

// Generator produces the per-instruction access stream for one core.
type Generator interface {
	Next() Access
}

// Stats aggregates a core's activity.
type Stats struct {
	Committed    uint64 // instructions retired
	ReadsIssued  uint64
	WritesIssued uint64
	ReadMerges   uint64 // loads merged onto an outstanding line
	StallROB     uint64 // cycles fetch stalled on a full window
	StallMSHR    uint64 // cycles fetch stalled on MSHR/store-buffer limits
	StallSerial  uint64 // cycles fetch stalled on a dependence chain
	InvsReceived uint64
}

type robEntry struct {
	done bool
	line uint64
	load bool
}

// Core is one out-of-order core consuming a Generator stream and speaking
// the L2 protocol over noc packets.
type Core struct {
	id   int
	node noc.NodeID
	am   *cache.AddrMap
	gen  Generator

	rob   [ROBEntries]robEntry
	head  int
	count int

	waiting      map[uint64][]int // line address -> ROB slots blocked on it
	slotListFree [][]int          // retired waiting lists, reused by new misses
	loadsOut     int              // distinct outstanding load lines
	storesOut    int              // posted stores awaiting WriteAck
	stalledOnMem Access           // memory op that could not issue this cycle
	hasStalled   bool
	blockedLine  uint64 // serializing load's line (issue stalls)
	blocked      bool

	outbox []*noc.Packet
	pool   *noc.PacketPool // nil: packets are plain heap allocations
	stats  Stats
}

// NewCoreMapped builds core id attached to its core-layer node of am's
// topology.
func NewCoreMapped(id int, gen Generator, am *cache.AddrMap) *Core {
	if id < 0 || id >= am.Topology().NumCores() {
		panic(fmt.Sprintf("cpu: core id %d out of range", id))
	}
	return &Core{
		id:      id,
		node:    noc.NodeID(id),
		am:      am,
		gen:     gen,
		waiting: make(map[uint64][]int),
	}
}

// ID returns the core index.
func (c *Core) ID() int { return c.id }

// Node returns the core's network node.
func (c *Core) Node() noc.NodeID { return c.node }

// Stats returns a copy of the core's counters.
func (c *Core) Stats() Stats { return c.stats }

// UsePool makes the core draw its outbound packets from pp (the simulator's
// packet pool); nil (the default) falls back to plain allocations.
func (c *Core) UsePool(pp *noc.PacketPool) { c.pool = pp }

// pkt materializes one outbound packet from tmpl.
func (c *Core) pkt(tmpl noc.Packet) *noc.Packet {
	if c.pool != nil {
		return c.pool.NewFrom(tmpl)
	}
	p := new(noc.Packet)
	*p = tmpl
	return p
}

// Committed returns the retired instruction count.
func (c *Core) Committed() uint64 { return c.stats.Committed }

// Outbox returns packets generated since the last drain and clears the box.
// The returned slice is valid until the core next generates a packet (its
// backing array is reused); callers drain it before ticking again.
func (c *Core) Outbox() []*noc.Packet {
	out := c.outbox
	c.outbox = c.outbox[:0]
	return out
}

// OnPacket ingests a packet delivered at the core's NIC.
func (c *Core) OnPacket(p *noc.Packet, now uint64) {
	switch p.Kind {
	case noc.KindReadResp:
		la := cache.LineAddr(p.Addr)
		if slots, ok := c.waiting[la]; ok {
			for _, s := range slots {
				c.rob[s].done = true
			}
			delete(c.waiting, la)
			c.slotListFree = append(c.slotListFree, slots[:0])
			c.loadsOut--
		}
		if c.blocked && la == c.blockedLine {
			c.blocked = false
		}
	case noc.KindWriteAck:
		if c.storesOut > 0 {
			c.storesOut--
		}
	case noc.KindInv:
		// The directory recalled a line from our L1: acknowledge.
		c.stats.InvsReceived++
		c.outbox = append(c.outbox, c.pkt(noc.Packet{
			Kind: noc.KindInvAck, Src: c.node, Dst: p.Src, Addr: p.Addr, Proc: c.id,
		}))
	}
}

// Tick advances the core one cycle: commit from the window head, then fetch
// and issue new instructions.
func (c *Core) Tick(now uint64) {
	c.commit()
	c.issue(now)
}

func (c *Core) commit() {
	for n := 0; n < CommitWidth && c.count > 0; n++ {
		e := &c.rob[c.head]
		if !e.done {
			return
		}
		e.done = false
		c.head = (c.head + 1) % ROBEntries
		c.count--
		c.stats.Committed++
	}
}

func (c *Core) issue(now uint64) {
	if c.blocked {
		// A dependence chain is waiting on an outstanding load.
		c.stats.StallSerial++
		return
	}
	memIssued := false
	for n := 0; n < IssueWidth; n++ {
		if c.count >= ROBEntries {
			c.stats.StallROB++
			return
		}
		var acc Access
		if c.hasStalled {
			acc = c.stalledOnMem
			c.hasStalled = false
		} else {
			acc = c.gen.Next()
		}
		if acc.Kind == AccessNone {
			c.push(robEntry{done: true})
			continue
		}
		// Memory operation: at most one per cycle (Table 1).
		if memIssued {
			c.stalledOnMem, c.hasStalled = acc, true
			return
		}
		if !c.tryIssueMem(acc, now) {
			c.stalledOnMem, c.hasStalled = acc, true
			c.stats.StallMSHR++
			return
		}
		memIssued = true
	}
}

// tryIssueMem issues one L2 access, returning false when a structural limit
// (L1 MSHRs for loads, store buffer for writes) blocks it.
func (c *Core) tryIssueMem(acc Access, now uint64) bool {
	la := cache.LineAddr(acc.Addr)
	switch acc.Kind {
	case AccessRead:
		if slots, ok := c.waiting[la]; ok {
			// Merge with the outstanding miss to the same line.
			slot := c.push(robEntry{line: la, load: true})
			c.waiting[la] = append(slots, slot)
			c.stats.ReadMerges++
			if acc.Serialize {
				c.blocked, c.blockedLine = true, la
			}
			return true
		}
		if c.loadsOut+c.storesOut >= MaxL1MSHRs {
			return false
		}
		slot := c.push(robEntry{line: la, load: true})
		if n := len(c.slotListFree); n > 0 {
			// Reuse a retired waiting list's backing array.
			c.waiting[la] = append(c.slotListFree[n-1], slot)
			c.slotListFree = c.slotListFree[:n-1]
		} else {
			c.waiting[la] = []int{slot}
		}
		c.loadsOut++
		c.stats.ReadsIssued++
		c.outbox = append(c.outbox, c.pkt(noc.Packet{
			Kind: noc.KindReadReq, Src: c.node, Dst: c.am.HomeNode(acc.Addr),
			Addr: acc.Addr, Proc: c.id,
		}))
		if acc.Serialize {
			c.blocked, c.blockedLine = true, la
		}
		return true
	case AccessWrite:
		if c.loadsOut+c.storesOut >= MaxL1MSHRs {
			return false
		}
		// Posted store: retires immediately, the writeback drains in the
		// background.
		c.push(robEntry{done: true})
		c.storesOut++
		c.stats.WritesIssued++
		c.outbox = append(c.outbox, c.pkt(noc.Packet{
			Kind: noc.KindWriteReq, Src: c.node, Dst: c.am.HomeNode(acc.Addr),
			Addr: acc.Addr, Proc: c.id, IsBankWrite: true,
		}))
		return true
	}
	return true
}

// push appends a ROB entry and returns its slot index.
func (c *Core) push(e robEntry) int {
	slot := (c.head + c.count) % ROBEntries
	c.rob[slot] = e
	c.count++
	return slot
}

// ResetStats clears the core's counters (end of warmup); architectural state
// (window contents, outstanding misses) is unaffected.
func (c *Core) ResetStats() { c.stats = Stats{} }
