// Package cache implements the shared L2 cache substrate: address-
// interleaved banks (one per cache-layer node) with real set-associative tag
// arrays, a directory-based MESI-style coherence filter (presence vectors,
// invalidations, acks), 32-entry MSHRs with request merging, LRU replacement
// with dirty writebacks, and the glue to the four corner memory controllers.
// Bank timing (3-cycle reads, 33-cycle STT-RAM writes, controller queuing)
// comes from internal/mem; all traffic flows over internal/noc packets.
package cache

import "sttsim/internal/noc"

// Line geometry (Table 1: 128-byte blocks).
const (
	LineBytes = 128
	LineShift = 7
)

// Associativity is the L2 set associativity (Table 1: 16-way).
const Associativity = 16

// LineAddr returns the cache-line address (byte address without the offset
// bits).
func LineAddr(addr uint64) uint64 { return addr >> LineShift }

// AddrOfLine is the inverse of LineAddr.
func AddrOfLine(line uint64) uint64 { return line << LineShift }

// SetsFor returns the number of sets a bank of the given capacity has.
func SetsFor(capacityMB int) int {
	return capacityMB * 1024 * 1024 / (LineBytes * Associativity)
}

// AddrMap is the address interleaving over a topology: which bank owns a
// line, which node hosts that bank, and which memory controller serves it.
// Every component that turns an address into a node holds one.
type AddrMap struct {
	topo     noc.Topology
	numBanks uint64
	mcs      []noc.NodeID
}

// defaultAddrMap is built once: every default-shape simulator shares it.
var defaultAddrMap = NewAddrMap(noc.DefaultTopology())

// DefaultAddrMap returns the shared map for the paper's 8x8x2 shape; do not
// modify it.
func DefaultAddrMap() *AddrMap { return defaultAddrMap }

// NewAddrMap derives the address interleaving for a topology. Lines stripe
// across all banks (every cache layer); the four memory controllers sit at
// the corners of the first cache layer, which reproduces the paper's
// {64, 71, 120, 127} placement at the default shape.
func NewAddrMap(topo noc.Topology) *AddrMap {
	return &AddrMap{
		topo:     topo,
		numBanks: uint64(topo.NumBanks()),
		mcs: []noc.NodeID{
			topo.NodeAt(1, 0, 0),
			topo.NodeAt(1, topo.MeshX-1, 0),
			topo.NodeAt(1, 0, topo.MeshY-1),
			topo.NodeAt(1, topo.MeshX-1, topo.MeshY-1),
		},
	}
}

// Topology returns the shape the map interleaves over.
func (m *AddrMap) Topology() noc.Topology { return m.topo }

// NumBanks returns the total bank count.
func (m *AddrMap) NumBanks() int { return int(m.numBanks) }

// HomeBank returns the bank index owning the address.
func (m *AddrMap) HomeBank(addr uint64) int { return int(LineAddr(addr) % m.numBanks) }

// HomeNode returns the cache-layer node owning the address.
func (m *AddrMap) HomeNode(addr uint64) noc.NodeID {
	return m.topo.BankNode(m.HomeBank(addr))
}

// BankInterleave returns the per-bank line index of an address (the line
// address above the bank-selection bits) — the set-index input.
func (m *AddrMap) BankInterleave(lineAddr uint64) uint64 { return lineAddr / m.numBanks }

// MCNode returns the memory controller serving the address.
func (m *AddrMap) MCNode(addr uint64) noc.NodeID {
	return m.mcs[(LineAddr(addr)/m.numBanks)%uint64(len(m.mcs))]
}

// MCNodeList returns the controller nodes; the slice is shared, do not
// modify it.
func (m *AddrMap) MCNodeList() []noc.NodeID { return m.mcs }

// ComposeAddr builds a byte address that maps to the given bank with the
// given line index within that bank.
func (m *AddrMap) ComposeAddr(bank int, lineInBank uint64) uint64 {
	return AddrOfLine(lineInBank*m.numBanks + uint64(bank)%m.numBanks)
}

// BankIndex returns the bank number of a cache-layer node.
func (m *AddrMap) BankIndex(n noc.NodeID) int { return m.topo.BankIndex(n) }
