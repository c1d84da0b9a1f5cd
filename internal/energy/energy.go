// Package energy computes the un-core (cache + interconnect) energy of a
// run, the quantity Figure 8 reports normalized to the SRAM baseline. Cache
// access energies and leakage powers come from Table 2 (internal/mem);
// network per-flit energies are Orion-class constants at 32nm/3GHz, matching
// the paper's methodology of folding Orion numbers into the simulator.
package energy

import (
	"sttsim/internal/mem"
	"sttsim/internal/noc"
)

// ClockHz is the 3GHz system clock of Table 1.
const ClockHz = 3e9

// Params are the network energy constants (nanojoules per flit event, and
// per-router leakage). They are deliberately simple: Figure 8 is normalized,
// so only relative magnitudes matter.
type Params struct {
	BufferWriteNJ  float64 // per flit buffered at a router input
	LinkTraverseNJ float64 // per flit crossing a 128-bit intra-layer link
	TSVTraverseNJ  float64 // per flit crossing a 128-bit vertical via
	TSBTraverseNJ  float64 // per flit crossing a 256-bit region TSB
	EjectNJ        float64 // per flit delivered into a NIC
	RouterLeakMW   float64 // per router leakage power
}

// DefaultParams are representative 32nm values (a 128-bit flit costs a few
// tens of picojoules per hop through buffer+crossbar+arbitration, links
// roughly half that, and TSVs are an order of magnitude cheaper than planar
// links). At these magnitudes the un-core energy is leakage-dominated, as in
// the paper, where replacing SRAM's 444.6mW/bank leakage with STT-RAM's
// 190.5mW/bank yields the ~54% un-core saving of Figure 8.
var DefaultParams = Params{
	BufferWriteNJ:  0.020,
	LinkTraverseNJ: 0.010,
	TSVTraverseNJ:  0.002,
	TSBTraverseNJ:  0.003,
	EjectNJ:        0.003,
	RouterLeakMW:   5.0,
}

// Report is the energy breakdown of one run, in joules.
type Report struct {
	CacheDynamicJ   float64
	CacheLeakageJ   float64
	NetworkDynamicJ float64
	NetworkLeakageJ float64
}

// UncoreJ is the total un-core energy.
func (r Report) UncoreJ() float64 {
	return r.CacheDynamicJ + r.CacheLeakageJ + r.NetworkDynamicJ + r.NetworkLeakageJ
}

// ComputeN derives the un-core energy of a run from the bank technology, the
// per-bank access counts, the network traffic counters, the measured cycle
// count and the router count; network leakage scales with the number of
// routers.
func ComputeN(tech mem.Tech, banks []mem.BankStats, net noc.NetStats, cycles uint64, routers int, p Params) Report {
	seconds := float64(cycles) / ClockHz
	var r Report

	var reads, writes uint64
	for _, b := range banks {
		reads += b.Reads + b.BufferHits
		writes += b.Writes + b.DrainedWrites
	}
	r.CacheDynamicJ = (float64(reads)*tech.ReadEnergyNJ + float64(writes)*tech.WriteEnergyNJ) * 1e-9
	r.CacheLeakageJ = float64(len(banks)) * tech.LeakagePowerMW * 1e-3 * seconds

	r.NetworkDynamicJ = (float64(net.BufferWrites)*p.BufferWriteNJ +
		float64(net.LinkFlits)*p.LinkTraverseNJ +
		float64(net.TSVFlits)*p.TSVTraverseNJ +
		float64(net.TSBFlits)*p.TSBTraverseNJ +
		float64(net.LocalFlits)*p.EjectNJ) * 1e-9
	r.NetworkLeakageJ = float64(routers) * p.RouterLeakMW * 1e-3 * seconds
	return r
}
