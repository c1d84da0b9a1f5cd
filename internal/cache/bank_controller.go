package cache

import (
	"fmt"

	"sttsim/internal/mem"
	"sttsim/internal/noc"
	"sttsim/internal/obs"
	"sttsim/internal/stats"
)

// MaxMSHRs is the per-bank miss-status-holding-register count (Table 1).
const MaxMSHRs = 32

// Tag-word layout. Each way of a tag array is one uint64: the line address in
// the low 57 bits (byte addresses are 64-bit and lines 128 bytes, so every
// line address fits) and the way's state flags above it. A way's word is zero
// until the way first holds a line, and tagUsed keeps it nonzero after an
// invalidation, so a zero word means "never used".
const (
	tagAddr  uint64 = 1<<57 - 1
	tagDirty uint64 = 1 << 61
	tagValid uint64 = 1 << 62
	tagUsed  uint64 = 1 << 63
)

// tagArray is a bank's tag words and the set geometry that indexes them: the
// part of the tag store a preload writes, and so all a tag image holds.
//
// Preload and allocate always fill the first way that holds no valid line,
// so the used ways of every set form a prefix and a probe stops at the first
// zero word instead of scanning all Associativity ways.
type tagArray struct {
	am      *AddrMap
	numSets int
	tags    []uint64 // numSets*Associativity tag words, set by set
}

// mshr tracks one outstanding miss and the requesters merged onto it.
type mshr struct {
	lineAddr uint64
	waiters  []waiter
}

type waiter struct {
	core int
	src  noc.NodeID
	// pktID is the merged request's network packet ID, echoed on the response
	// so the event trace can stitch the round trip (internal/obs).
	pktID uint64
	// queueDelay accumulated before the miss was discovered (the initial tag
	// probe's controller-queue wait), reported on the eventual response.
	queueDelay uint64
	// injected is the cycle the original request entered the network,
	// echoed on the response for end-to-end latency accounting.
	injected uint64
}

// accessKind distinguishes the operations a bank serves.
type accessKind uint8

const (
	accRead accessKind = iota
	accWrite
	accFill
)

// reqMeta is the protocol context attached to an in-flight mem.Request.
type reqMeta struct {
	kind     accessKind
	core     int
	src      noc.NodeID
	addr     uint64
	injected uint64 // original request's network injection cycle
	pktID    uint64 // original request's network packet ID (internal/obs)

	// Write-failure retry state (fault injection): attempts already failed,
	// and the queue delay accumulated across them (reported on the final ack).
	retries    int
	queueDelay uint64
}

// Stats aggregates a bank controller's protocol activity.
type Stats struct {
	ReadHits    uint64
	ReadMisses  uint64
	WriteHits   uint64
	WriteMisses uint64
	Fills       uint64
	Evictions   uint64
	Writebacks  uint64 // dirty evictions sent to memory
	InvSent     uint64
	InvAcksRecv uint64
	MSHRMerges  uint64
	MSHRStalls  uint64 // misses that had to wait for a free MSHR

	// Stochastic write-failure handling (fault injection; all zero when the
	// fault layer is off).
	WriteFaults      uint64 // array writes the error model failed
	WriteRetries     uint64 // failed writes re-pulsed after backoff
	RetriesExhausted uint64 // writes abandoned after MaxWriteRetries failures
	LinesInvalidated uint64 // resident lines dropped by the invalidate fallback
	FillsDropped     uint64 // fill installs abandoned (data was already forwarded)
}

// BankController is one L2 bank: the protocol brain wrapped around a
// mem.Bank's timing model. Packets arrive via HandlePacket (wired to the
// node's NIC); outbound packets accumulate in an outbox the simulator drains
// into the network each cycle.
type BankController struct {
	node noc.NodeID
	bank *mem.Bank

	// The tag store: tag words plus, per way in parallel arrays, the
	// directory presence vector and the LRU stamp.
	tagArray
	sharers []uint64 // presence bit per core (directory vector)
	lastUse []uint64 // LRU timestamp

	mshrs    map[uint64]*mshr
	mshrWait []pendingMiss // misses waiting for a free MSHR
	// fillSharers carries waiters' directory bits from the forwarded
	// response to the background array write that installs the line.
	fillSharers map[uint64]uint64

	meta   map[uint64]reqMeta
	nextID uint64

	outbox []*noc.Packet
	stats  Stats

	// Steady-state allocation elimination: outbound packets come from the
	// simulator's pool when one is installed, finished mem.Requests and
	// released MSHRs recirculate through free lists, and the bank writes its
	// completions into a reused scratch value.
	pool     *noc.PacketPool
	reqFree  []*mem.Request
	mshrFree []*mshr
	comp     mem.Completion

	// Figure 3 instrumentation: distribution of access arrivals relative to
	// the most recent preceding write request to this bank.
	gapHist   *stats.Histogram
	lastWrite uint64
	sawWrite  bool

	// Stochastic STT-RAM write-failure injection (nil when disabled): failed
	// array writes are retried after a backoff, then fall back to invalidating
	// the line so the bank never wedges on a bad cell.
	faults       WriteFaultInjector
	maxRetries   int
	retryBackoff uint64
	retryQ       []retryEntry

	// tracer records bank access and write-fault events; nil (the default)
	// means disabled, and every call site is nil-safe.
	tracer *obs.Tracer
}

// WriteFaultInjector is the hook through which the fault-injection engine
// (internal/fault) fails individual array writes. Implementations must be
// deterministic for reproducible campaigns.
type WriteFaultInjector interface {
	// WriteFails reports whether this array write at bank (0..63) fails.
	WriteFails(bank int) bool
}

// retryEntry is one failed write waiting out its backoff before re-entering
// the bank queue.
type retryEntry struct {
	readyAt uint64
	op      mem.Op
	m       reqMeta
}

type pendingMiss struct {
	w        waiter
	lineAddr uint64
}

// NewBankController builds the bank at the given cache-layer node using the
// supplied timing model (plain or write-buffered, SRAM or STT-RAM).
func NewBankController(node noc.NodeID, bank *mem.Bank) *BankController {
	return NewBankControllerMapped(node, bank, DefaultAddrMap())
}

// NewBankControllerMapped builds the bank using an explicit topology address
// map (non-default shapes).
func NewBankControllerMapped(node noc.NodeID, bank *mem.Bank, am *AddrMap) *BankController {
	return NewBankControllerTags(node, bank, am, nil)
}

// NewBankControllerTags builds the bank around tags, the tag words of a bank
// of its capacity under am — typically a NewTagImage result or a clone of
// one. The controller owns tags from here on and writes to them; nil starts
// with an empty tag array.
func NewBankControllerTags(node noc.NodeID, bank *mem.Bank, am *AddrMap, tags []uint64) *BankController {
	if am == nil {
		am = DefaultAddrMap()
	}
	if am.Topology().Layer(node) == 0 {
		panic(fmt.Sprintf("cache: bank controller node %d is not in a cache layer", node))
	}
	numSets := SetsFor(bank.Tech().CapacityMB)
	ways := numSets * Associativity
	if tags == nil {
		tags = make([]uint64, ways)
	} else if len(tags) != ways {
		panic(fmt.Sprintf("cache: bank %d given %d tag words, its capacity needs %d", node, len(tags), ways))
	}
	return &BankController{
		node:        node,
		bank:        bank,
		tagArray:    tagArray{am: am, numSets: numSets, tags: tags},
		sharers:     make([]uint64, ways),
		lastUse:     make([]uint64, ways),
		mshrs:       make(map[uint64]*mshr),
		fillSharers: make(map[uint64]uint64),
		meta:        make(map[uint64]reqMeta),
	}
}

// Node returns the controller's cache-layer node.
func (bc *BankController) Node() noc.NodeID { return bc.node }

// Bank exposes the underlying timing model (for busy inspection and stats).
func (bc *BankController) Bank() *mem.Bank { return bc.bank }

// Stats returns a copy of the protocol statistics.
func (bc *BankController) Stats() Stats { return bc.stats }

// Outbox returns packets generated since the last drain and clears the box.
// The returned slice is valid until the controller next emits a packet (its
// backing array is reused); callers drain it before ticking again.
func (bc *BankController) Outbox() []*noc.Packet {
	out := bc.outbox
	bc.outbox = bc.outbox[:0]
	return out
}

// UsePool makes the controller draw its outbound packets from pp (the
// simulator's packet pool); nil (the default) falls back to plain allocations.
func (bc *BankController) UsePool(pp *noc.PacketPool) { bc.pool = pp }

// pkt materializes one outbound packet from tmpl.
func (bc *BankController) pkt(tmpl noc.Packet) *noc.Packet {
	if bc.pool != nil {
		return bc.pool.NewFrom(tmpl)
	}
	p := new(noc.Packet)
	*p = tmpl
	return p
}

// SetTracer installs the observability tracer (nil disables it).
func (bc *BankController) SetTracer(t *obs.Tracer) { bc.tracer = t }

// SetWriteFaults installs the stochastic write-failure model: each completed
// array write consults f; failures are retried up to maxRetries times,
// backoff cycles apart, before the controller invalidates the line.
func (bc *BankController) SetWriteFaults(f WriteFaultInjector, maxRetries int, backoff uint64) {
	bc.faults = f
	bc.maxRetries = maxRetries
	bc.retryBackoff = backoff
}

// bankIndex returns the bank number for the fault model.
func (bc *BankController) bankIndex() int { return bc.am.BankIndex(bc.node) }

// writeFailed consults the fault injector for one completed array write.
func (bc *BankController) writeFailed() bool {
	return bc.faults != nil && bc.faults.WriteFails(bc.bankIndex())
}

// scheduleRetry queues a failed write for a re-pulse after the backoff.
func (bc *BankController) scheduleRetry(now uint64, op mem.Op, m reqMeta) {
	bc.stats.WriteRetries++
	bc.bank.NoteRetriedWrite()
	bc.retryQ = append(bc.retryQ, retryEntry{readyAt: now + bc.retryBackoff, op: op, m: m})
}

// drainRetries re-enqueues retries whose backoff has elapsed (FIFO order).
func (bc *BankController) drainRetries(now uint64) {
	kept := bc.retryQ[:0]
	for _, e := range bc.retryQ {
		if e.readyAt > now {
			kept = append(kept, e)
			continue
		}
		bc.enqueue(e.op, e.m, now)
	}
	bc.retryQ = kept
}

// setBase returns the index of the first way of the set holding a line
// address; the set's ways are the Associativity words from there. The set
// index is a hash of the line address above the bank-interleaving bits —
// LLCs commonly hash their index to break power-of-two stride pathologies,
// and our synthetic address-space bases are exactly such strides.
func (ta *tagArray) setBase(lineAddr uint64) int {
	v := ta.am.BankInterleave(lineAddr)
	v *= 0x9E3779B97F4A7C15
	v ^= v >> 29
	return int(v%uint64(ta.numSets)) * Associativity
}

// lookup returns the way holding lineAddr as a valid line, or -1. It stops
// at the set's first never-used way: no way past it has held a line.
func (ta *tagArray) lookup(lineAddr uint64) int {
	base := ta.setBase(lineAddr)
	want := lineAddr | tagUsed | tagValid
	for w := base; w < base+Associativity; w++ {
		t := ta.tags[w]
		if t == 0 {
			break
		}
		if t&^tagDirty == want {
			return w
		}
	}
	return -1
}

// preload installs a line as valid and clean unless it is already resident,
// and returns the way it wrote (-1 when resident). The line takes the set's
// first way without a valid line; a full set gives up its first way.
func (ta *tagArray) preload(lineAddr uint64) int {
	base := ta.setBase(lineAddr)
	free := -1
	for w := base; w < base+Associativity; w++ {
		t := ta.tags[w]
		if t&tagValid == 0 {
			if free < 0 {
				free = w
			}
			if t == 0 {
				break
			}
		} else if t&tagAddr == lineAddr {
			return -1
		}
	}
	if free < 0 {
		free = base // set full during preload: replace way 0 (deterministic)
	}
	ta.tags[free] = lineAddr | tagUsed | tagValid
	return free
}

// send queues an outbound packet.
func (bc *BankController) send(p *noc.Packet) { bc.outbox = append(bc.outbox, p) }

// HandlePacket ingests a packet delivered at this node's NIC.
func (bc *BankController) HandlePacket(p *noc.Packet, now uint64) {
	switch p.Kind {
	case noc.KindReadReq:
		bc.observeGap(p, now)
		la := LineAddr(p.Addr)
		if m, ok := bc.mshrs[la]; ok {
			// Merge onto the outstanding miss: no bank access needed.
			m.waiters = append(m.waiters, waiter{core: p.Proc, src: p.Src, injected: p.Injected, pktID: p.ID})
			bc.stats.MSHRMerges++
			return
		}
		bc.enqueue(mem.OpRead, reqMeta{kind: accRead, core: p.Proc, src: p.Src, addr: p.Addr, injected: p.Injected, pktID: p.ID}, now)
	case noc.KindWriteReq:
		bc.observeGap(p, now)
		bc.enqueue(mem.OpWrite, reqMeta{kind: accWrite, core: p.Proc, src: p.Src, addr: p.Addr, injected: p.Injected, pktID: p.ID}, now)
	case noc.KindMemResp:
		// Fill-buffer forwarding: answer the merged waiters immediately —
		// the requester gets the data as it arrives from memory — while the
		// array write that installs the line proceeds in the background and
		// occupies the bank like any other long write.
		bc.forwardFill(p, now)
		bc.enqueue(mem.OpWrite, reqMeta{kind: accFill, addr: p.Addr}, now)
	case noc.KindInvAck:
		bc.stats.InvAcksRecv++
	default:
		panic(fmt.Sprintf("cache: bank %d received unexpected %s packet", bc.node, p.Kind))
	}
}

// enqueue hands an access to the bank's timing model. Request objects
// recirculate through reqFree: the bank owns a request from here until its
// completion is handled in Tick.
func (bc *BankController) enqueue(op mem.Op, m reqMeta, now uint64) {
	bc.nextID++
	bc.meta[bc.nextID] = m
	var r *mem.Request
	if n := len(bc.reqFree); n > 0 {
		r = bc.reqFree[n-1]
		bc.reqFree = bc.reqFree[:n-1]
	} else {
		r = new(mem.Request)
	}
	*r = mem.Request{Op: op, Addr: LineAddr(m.addr), ID: bc.nextID, Proc: m.core}
	bc.bank.Enqueue(r, now)
}

// Tick advances the bank one cycle and performs the protocol action of
// whatever access completed.
func (bc *BankController) Tick(now uint64) {
	if len(bc.retryQ) > 0 {
		bc.drainRetries(now)
	}
	if !bc.bank.TickInto(now, &bc.comp) {
		return
	}
	c := &bc.comp
	m, ok := bc.meta[c.Req.ID]
	if !ok {
		panic(fmt.Sprintf("cache: bank %d completion for unknown request %d", bc.node, c.Req.ID))
	}
	delete(bc.meta, c.Req.ID)
	bc.tracer.BankAccess(bc.node, m.pktID, accessNocKind(m.kind), c.Done, c.QueueDelay, c.Service)
	bc.reqFree = append(bc.reqFree, c.Req)
	switch m.kind {
	case accRead:
		bc.finishRead(m, c, now)
	case accWrite:
		bc.finishWrite(m, c, now)
	case accFill:
		bc.finishFill(m, c, now)
	}
}

// accessNocKind maps an access kind onto the packet kind recorded in bank
// trace events.
func accessNocKind(k accessKind) noc.Kind {
	switch k {
	case accRead:
		return noc.KindReadReq
	case accWrite:
		return noc.KindWriteReq
	default:
		return noc.KindMemResp
	}
}

// finishRead handles a completed tag+data probe for a core read.
func (bc *BankController) finishRead(m reqMeta, c *mem.Completion, now uint64) {
	la := LineAddr(m.addr)
	if w := bc.lookup(la); w >= 0 {
		bc.stats.ReadHits++
		bc.lastUse[w] = now
		if m.core >= 0 && m.core < 64 {
			bc.sharers[w] |= 1 << uint(m.core)
		}
		bc.send(bc.pkt(noc.Packet{
			Kind: noc.KindReadResp, Src: bc.node, Dst: m.src,
			Addr: m.addr, Proc: m.core,
			BankQueueDelay: c.QueueDelay, BankService: c.Service, ReqInjected: m.injected,
			ReqID: m.pktID,
		}))
		return
	}
	bc.stats.ReadMisses++
	bc.startMiss(waiter{core: m.core, src: m.src, queueDelay: c.QueueDelay, injected: m.injected, pktID: m.pktID}, la, now)
}

// startMiss allocates (or queues for) an MSHR and issues the memory request.
func (bc *BankController) startMiss(w waiter, lineAddr uint64, now uint64) {
	if m, ok := bc.mshrs[lineAddr]; ok {
		m.waiters = append(m.waiters, w)
		bc.stats.MSHRMerges++
		return
	}
	if len(bc.mshrs) >= MaxMSHRs {
		bc.mshrWait = append(bc.mshrWait, pendingMiss{w: w, lineAddr: lineAddr})
		bc.stats.MSHRStalls++
		return
	}
	var msh *mshr
	if n := len(bc.mshrFree); n > 0 {
		msh = bc.mshrFree[n-1]
		bc.mshrFree = bc.mshrFree[:n-1]
		msh.lineAddr = lineAddr
		msh.waiters = append(msh.waiters[:0], w)
	} else {
		msh = &mshr{lineAddr: lineAddr, waiters: []waiter{w}}
	}
	bc.mshrs[lineAddr] = msh
	addr := AddrOfLine(lineAddr)
	bc.send(bc.pkt(noc.Packet{
		Kind: noc.KindMemReq, Src: bc.node, Dst: bc.am.MCNode(addr),
		Addr: addr, Proc: w.core, SizeFlits: noc.AddrPacketFlits,
	}))
}

// finishWrite handles a completed write access (an L1 writeback landing in
// the bank).
func (bc *BankController) finishWrite(m reqMeta, c *mem.Completion, now uint64) {
	la := LineAddr(m.addr)
	if bc.writeFailed() {
		bc.stats.WriteFaults++
		if m.retries < bc.maxRetries {
			m.retries++
			m.queueDelay += c.QueueDelay
			bc.tracer.Fault(obs.FaultWriteRetry, bc.node, m.pktID, uint64(m.retries), 0, now)
			bc.scheduleRetry(now, mem.OpWrite, m)
			return
		}
		// Retries exhausted: the array never took the data. Invalidate the
		// (now stale) resident copy so no one reads it, and still ack the
		// writer — the hardware raises a machine-check, not a hang.
		bc.stats.RetriesExhausted++
		bc.tracer.Fault(obs.FaultWriteDropped, bc.node, m.pktID, uint64(m.retries), 0, now)
		if w := bc.lookup(la); w >= 0 {
			bc.invalidateSharers(w, -1)
			bc.tags[w] &^= tagValid
			bc.sharers[w] = 0
			bc.stats.LinesInvalidated++
		}
		bc.send(bc.pkt(noc.Packet{
			Kind: noc.KindWriteAck, Src: bc.node, Dst: m.src,
			Addr: m.addr, Proc: m.core,
			BankQueueDelay: m.queueDelay + c.QueueDelay, BankService: c.Service, ReqInjected: m.injected,
			ReqID: m.pktID,
		}))
		return
	}
	w := bc.lookup(la)
	if w >= 0 {
		bc.stats.WriteHits++
	} else {
		// Write-allocate in place: the writeback carries the full line, so
		// no memory fetch is needed.
		bc.stats.WriteMisses++
		w = bc.allocate(la, now)
	}
	bc.tags[w] |= tagDirty
	bc.lastUse[w] = now
	// Directory action: invalidate all other sharers. The writer's L1 gave
	// the line up by writing it back.
	bc.invalidateSharers(w, m.core)
	bc.sharers[w] = 0
	bc.send(bc.pkt(noc.Packet{
		Kind: noc.KindWriteAck, Src: bc.node, Dst: m.src,
		Addr: m.addr, Proc: m.core,
		BankQueueDelay: m.queueDelay + c.QueueDelay, BankService: c.Service, ReqInjected: m.injected,
		ReqID: m.pktID,
	}))
}

// forwardFill answers every waiter merged on the miss as soon as the memory
// response arrives (fill-buffer forwarding), releasing the MSHR.
func (bc *BankController) forwardFill(p *noc.Packet, now uint64) {
	la := LineAddr(p.Addr)
	msh, ok := bc.mshrs[la]
	if !ok {
		return // stale fill (e.g. the line was written while the miss was out)
	}
	delete(bc.mshrs, la)
	bc.fillSharers[la] = sharersOf(msh.waiters)
	for _, w := range msh.waiters {
		bc.send(bc.pkt(noc.Packet{
			Kind: noc.KindReadResp, Src: bc.node, Dst: w.src,
			Addr: p.Addr, Proc: w.core,
			BankQueueDelay: w.queueDelay, ReqInjected: w.injected,
			ReqID: w.pktID,
		}))
	}
	bc.mshrFree = append(bc.mshrFree, msh)
	// MSHR freed: admit a waiting miss, if any.
	if len(bc.mshrWait) > 0 {
		pm := bc.mshrWait[0]
		copy(bc.mshrWait, bc.mshrWait[1:])
		bc.mshrWait = bc.mshrWait[:len(bc.mshrWait)-1]
		bc.startMiss(pm.w, pm.lineAddr, now)
	}
}

// sharersOf collects the presence bits of a waiter list.
func sharersOf(ws []waiter) uint64 {
	var bits uint64
	for _, w := range ws {
		if w.core >= 0 && w.core < 64 {
			bits |= 1 << uint(w.core)
		}
	}
	return bits
}

// finishFill handles the completed background array write of a fill:
// install the tag and the waiters' directory bits.
func (bc *BankController) finishFill(m reqMeta, c *mem.Completion, now uint64) {
	la := LineAddr(m.addr)
	if bc.writeFailed() {
		bc.stats.WriteFaults++
		if m.retries < bc.maxRetries {
			m.retries++
			bc.tracer.Fault(obs.FaultWriteRetry, bc.node, m.pktID, uint64(m.retries), 0, now)
			bc.scheduleRetry(now, mem.OpWrite, m)
			return
		}
		// Give up on caching the line; the waiters already got their data via
		// fill-buffer forwarding, so dropping the install only costs a future
		// re-fetch.
		bc.stats.RetriesExhausted++
		bc.stats.FillsDropped++
		bc.tracer.Fault(obs.FaultWriteDropped, bc.node, m.pktID, uint64(m.retries), 0, now)
		delete(bc.fillSharers, la)
		return
	}
	bc.stats.Fills++
	w := bc.lookup(la)
	if w < 0 {
		w = bc.allocate(la, now)
	}
	bc.tags[w] &^= tagDirty
	bc.lastUse[w] = now
	bc.sharers[w] |= bc.fillSharers[la]
	delete(bc.fillSharers, la)
}

// allocate victimizes a way in the line's set — the first way without a
// valid line, else the least recently used — installs the new tag there and
// returns the way.
func (bc *BankController) allocate(lineAddr uint64, now uint64) int {
	base := bc.setBase(lineAddr)
	victim := base
	for w := base; w < base+Associativity; w++ {
		if bc.tags[w]&tagValid == 0 {
			victim = w
			break
		}
		if bc.lastUse[w] < bc.lastUse[victim] {
			victim = w
		}
	}
	if t := bc.tags[victim]; t&tagValid != 0 {
		bc.stats.Evictions++
		// Recall the line from any L1s still holding it.
		bc.invalidateSharers(victim, -1)
		if t&tagDirty != 0 {
			bc.stats.Writebacks++
			addr := AddrOfLine(t & tagAddr)
			bc.send(bc.pkt(noc.Packet{
				Kind: noc.KindMemReq, Src: bc.node, Dst: bc.am.MCNode(addr),
				Addr: addr, Proc: -1, SizeFlits: noc.DataPacketFlits, IsBankWrite: true,
			}))
		}
	}
	bc.tags[victim] = lineAddr | tagUsed | tagValid
	bc.sharers[victim] = 0
	bc.lastUse[victim] = now
	return victim
}

// invalidateSharers sends an invalidation for the line in way w to every
// sharer except the given core (-1 invalidates everyone).
func (bc *BankController) invalidateSharers(w int, except int) {
	sharers := bc.sharers[w]
	if sharers == 0 {
		return
	}
	addr := AddrOfLine(bc.tags[w] & tagAddr)
	for core := 0; core < 64; core++ {
		if core == except || sharers&(1<<uint(core)) == 0 {
			continue
		}
		bc.stats.InvSent++
		bc.send(bc.pkt(noc.Packet{
			Kind: noc.KindInv, Src: bc.node, Dst: noc.NodeID(core),
			Addr: addr, Proc: core,
		}))
	}
}

// SetGapHistogram installs the Figure 3 instrumentation: every demand access
// observes its distance (in cycles) from the most recent preceding write
// request to this bank.
func (bc *BankController) SetGapHistogram(h *stats.Histogram) { bc.gapHist = h }

// observeGap records the access-after-write gap for Figure 3.
func (bc *BankController) observeGap(p *noc.Packet, now uint64) {
	if bc.gapHist != nil && bc.sawWrite {
		bc.gapHist.Observe(now - bc.lastWrite)
	}
	if p.Kind == noc.KindWriteReq {
		bc.lastWrite = now
		bc.sawWrite = true
	}
}

// ResetStats clears the protocol statistics (end of warmup); tag and MSHR
// state is unaffected. The gap histogram, if installed, is reset too.
func (bc *BankController) ResetStats() {
	bc.stats = Stats{}
	if bc.gapHist != nil {
		bc.gapHist.Reset()
	}
}

// Preload installs a line as resident and clean without any timing effect —
// tag warmup standing in for the billions of instructions the paper's traces
// execute before measurement.
func (bc *BankController) Preload(lineAddr uint64) {
	if w := bc.preload(lineAddr); w >= 0 {
		bc.sharers[w] = 0
		bc.lastUse[w] = 0
	}
}

// PreloadBatch installs many lines at once, in order; the result is that of
// one Preload call per line.
func (bc *BankController) PreloadBatch(lineAddrs []uint64) {
	for _, la := range lineAddrs {
		bc.Preload(la)
	}
}

// NewTagImage returns the tag words of an empty bank of the given capacity
// under am after preloading lineAddrs in order: the tag array PreloadBatch
// would leave. Preloaded lines have no sharers and a zero LRU stamp, so the
// words are the bank's whole preloaded state, and NewBankControllerTags on a
// clone of them rebuilds it.
func NewTagImage(am *AddrMap, capacityMB int, lineAddrs []uint64) []uint64 {
	numSets := SetsFor(capacityMB)
	ta := tagArray{am: am, numSets: numSets, tags: make([]uint64, numSets*Associativity)}
	for _, la := range lineAddrs {
		ta.preload(la)
	}
	return ta.tags
}
