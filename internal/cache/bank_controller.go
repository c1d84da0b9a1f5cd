package cache

import (
	"fmt"
	"math/bits"
	"sync"

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

// setState is one set's tag words, directory presence vectors (see
// sharerBit) and LRU stamps, side by side.
type setState struct {
	tags, sharers, lastUse [Associativity]uint64
}

// setStore is a bank's set records and the bitmap of those initialized this
// run. Stores pass between banks through storePools, so a record not yet
// initialized holds an earlier run's bytes.
type setStore struct {
	sets   []setState
	inited []uint64
}

// tagArray is a bank's tag store and the set geometry that indexes it. A set
// is initialized from image on the bank's first access to it in a run, and
// nothing reads a record except through set or a way handle (the global way
// index set*Associativity + way) that a call through set returned.
//
// Preload and allocate always fill the first way that holds no valid line,
// so the used ways of every set form a prefix and a probe stops at the first
// zero word instead of scanning all Associativity ways.
type tagArray struct {
	am      *AddrMap
	numSets int
	image   []uint64 // preloaded tag words, set by set, never written; nil is empty
	*setStore
}

// storePools holds the free lists of set stores, one per set count, indexed
// by its bit length: every tech's set count is a power of two, and a store of
// another count is never taken.
var storePools [bits.UintSize]sync.Pool

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

	// The tag store: per set, the tag words, directory presence vectors and
	// LRU stamps of its ways.
	tagArray

	// Presence-vector geometry: bit b of a sharers word covers the cores
	// [b<<sharerShift, (b+1)<<sharerShift). sharerShift is 0 up to
	// presenceBits cores, one bit per core; larger meshes share a bit among
	// a group of cores.
	numCores    int
	sharerShift uint

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
	// WriteFails reports whether this array write at bank (0..NumBanks-1)
	// fails.
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

// NewBankControllerMapped builds the bank at the given cache-layer node of
// am's topology using the supplied timing model (plain or write-buffered,
// SRAM or STT-RAM), with an empty tag array.
func NewBankControllerMapped(node noc.NodeID, bank *mem.Bank, am *AddrMap) *BankController {
	return NewBankControllerTags(node, bank, am, nil)
}

// NewBankControllerTags builds the bank on image, the preloaded tag words of
// a bank of its capacity under am (a NewTagImage result, which the bank only
// reads); nil starts with an empty tag array. Its set records are storage a
// released bank left, when there is some.
func NewBankControllerTags(node noc.NodeID, bank *mem.Bank, am *AddrMap, image []uint64) *BankController {
	numSets := SetsFor(bank.Tech().CapacityMB)
	st, _ := storePools[bits.Len(uint(numSets))].Get().(*setStore)
	if st == nil || len(st.sets) != numSets {
		st = &setStore{sets: make([]setState, numSets), inited: make([]uint64, (numSets+63)/64)}
	}
	return newBankController(node, bank, am, image, st)
}

// newBankController builds the bank on image and st, whatever st holds.
func newBankController(node noc.NodeID, bank *mem.Bank, am *AddrMap, image []uint64, st *setStore) *BankController {
	topo := am.Topology()
	if topo.Layer(node) == 0 {
		panic(fmt.Sprintf("cache: bank controller node %d is not in a cache layer", node))
	}
	numSets := len(st.sets)
	if image != nil && len(image) != numSets*Associativity {
		panic(fmt.Sprintf("cache: bank %d given %d tag words, its capacity needs %d", node, len(image), numSets*Associativity))
	}
	clear(st.inited)
	bc := &BankController{
		node:        node,
		bank:        bank,
		tagArray:    tagArray{am: am, numSets: numSets, image: image, setStore: st},
		numCores:    topo.NumCores(),
		mshrs:       make(map[uint64]*mshr),
		fillSharers: make(map[uint64]uint64),
		meta:        make(map[uint64]reqMeta),
	}
	for (bc.numCores-1)>>bc.sharerShift >= presenceBits {
		bc.sharerShift++
	}
	return bc
}

// Release hands the bank's set records to a later bank. The bank must not be
// used afterwards: an access to its tags panics rather than share storage.
// Releasing twice is safe.
func (bc *BankController) Release() {
	if bc.setStore != nil {
		storePools[bits.Len(uint(bc.numSets))].Put(bc.setStore)
		bc.setStore = nil
	}
}

// presenceBits is the width of one way's directory presence vector.
const presenceBits = 64

// sharerBit returns the presence bit covering core, or 0 for a requester
// that is not a core (Proc -1).
func (bc *BankController) sharerBit(core int) uint64 {
	if core < 0 || core >= bc.numCores {
		return 0
	}
	return 1 << uint(core>>bc.sharerShift)
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

// setOf returns the set holding a line address. The set index is a hash of
// the line address above the bank-interleaving bits — LLCs commonly hash
// their index to break power-of-two stride pathologies, and our synthetic
// address-space bases are exactly such strides.
func (ta *tagArray) setOf(lineAddr uint64) int {
	v := ta.am.BankInterleave(lineAddr)
	v *= 0x9E3779B97F4A7C15
	v ^= v >> 29
	return int(v % uint64(ta.numSets))
}

// set returns set s's record, initializing it on the bank's first access to
// it this run: tag words from the image (zero without one), no sharers and
// zero LRU stamps.
func (ta *tagArray) set(s int) *setState {
	st := &ta.sets[s]
	if bit := uint64(1) << (s % 64); ta.inited[s/64]&bit == 0 {
		ta.inited[s/64] |= bit
		*st = setState{}
		if ta.image != nil {
			st.tags = [Associativity]uint64(ta.image[s*Associativity : (s+1)*Associativity])
		}
	}
	return st
}

// way resolves a way handle into its set's record and the way's index there.
func (ta *tagArray) way(w int) (*setState, int) {
	return &ta.sets[w/Associativity], w % Associativity
}

// lookup returns the way holding lineAddr as a valid line, or -1. It stops
// at the set's first never-used way: no way past it has held a line.
func (ta *tagArray) lookup(lineAddr uint64) int {
	s := ta.setOf(lineAddr)
	want := lineAddr | tagUsed | tagValid
	for i, t := range &ta.set(s).tags {
		if t == 0 {
			break
		}
		if t&^tagDirty == want {
			return s*Associativity + i
		}
	}
	return -1
}

// preloadSet installs a line in a set's tag words as valid and clean unless
// it is already resident, and returns the way it wrote (-1 when resident).
// The line takes the set's first way without a valid line; a full set gives
// up its first way.
func preloadSet(tags *[Associativity]uint64, lineAddr uint64) int {
	free := -1
	for i, t := range tags {
		if t&tagValid == 0 {
			if free < 0 {
				free = i
			}
			if t == 0 {
				break
			}
		} else if t&tagAddr == lineAddr {
			return -1
		}
	}
	if free < 0 {
		free = 0 // set full during preload: replace way 0 (deterministic)
	}
	tags[free] = lineAddr | tagUsed | tagValid
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
		st, i := bc.way(w)
		st.lastUse[i] = now
		st.sharers[i] |= bc.sharerBit(m.core)
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
			st, i := bc.way(w)
			st.tags[i] &^= tagValid
			st.sharers[i] = 0
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
	st, i := bc.way(w)
	st.tags[i] |= tagDirty
	st.lastUse[i] = now
	// Directory action: invalidate all other sharers. The writer's L1 gave
	// the line up by writing it back.
	bc.invalidateSharers(w, m.core)
	st.sharers[i] = 0
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
	bc.fillSharers[la] = bc.sharersOf(msh.waiters)
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
func (bc *BankController) sharersOf(ws []waiter) uint64 {
	var vec uint64
	for _, w := range ws {
		vec |= bc.sharerBit(w.core)
	}
	return vec
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
	st, i := bc.way(w)
	st.tags[i] &^= tagDirty
	st.lastUse[i] = now
	st.sharers[i] |= bc.fillSharers[la]
	delete(bc.fillSharers, la)
}

// allocate victimizes a way in the line's set — the first way without a
// valid line, else the least recently used — installs the new tag there and
// returns the way.
func (bc *BankController) allocate(lineAddr uint64, now uint64) int {
	s := bc.setOf(lineAddr)
	st := bc.set(s)
	v := 0
	for i, t := range &st.tags {
		if t&tagValid == 0 {
			v = i
			break
		}
		if st.lastUse[i] < st.lastUse[v] {
			v = i
		}
	}
	victim := s*Associativity + v
	if t := st.tags[v]; t&tagValid != 0 {
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
	st.tags[v] = lineAddr | tagUsed | tagValid
	st.sharers[v] = 0
	st.lastUse[v] = now
	return victim
}

// invalidateSharers sends an invalidation for the line in way w to every
// core a set presence bit covers, in core order, except the given core (-1
// invalidates everyone). Under a coarse vector that includes cores holding
// no copy; they just ack.
func (bc *BankController) invalidateSharers(w int, except int) {
	st, i := bc.way(w)
	sharers := st.sharers[i]
	if sharers == 0 {
		return
	}
	addr := AddrOfLine(st.tags[i] & tagAddr)
	for ; sharers != 0; sharers &= sharers - 1 {
		lo := bits.TrailingZeros64(sharers) << bc.sharerShift
		hi := min(lo+1<<bc.sharerShift, bc.numCores)
		for core := lo; core < hi; core++ {
			if core == except {
				continue
			}
			bc.stats.InvSent++
			bc.send(bc.pkt(noc.Packet{
				Kind: noc.KindInv, Src: bc.node, Dst: noc.NodeID(core),
				Addr: addr, Proc: core,
			}))
		}
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
	st := bc.set(bc.setOf(lineAddr))
	if i := preloadSet(&st.tags, lineAddr); i >= 0 {
		st.sharers[i] = 0
		st.lastUse[i] = 0
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
// under am after preloading lineAddrs in order, set by set: the tag store
// PreloadBatch would leave. Preloaded lines have no sharers and a zero LRU
// stamp, so the words are the bank's whole preloaded state, and
// NewBankControllerTags on them rebuilds it.
func NewTagImage(am *AddrMap, capacityMB int, lineAddrs []uint64) []uint64 {
	ta := tagArray{am: am, numSets: SetsFor(capacityMB)}
	img := make([]uint64, ta.numSets*Associativity)
	for _, la := range lineAddrs {
		preloadSet((*[Associativity]uint64)(img[ta.setOf(la)*Associativity:]), la)
	}
	return img
}
