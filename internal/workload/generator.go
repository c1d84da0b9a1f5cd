package workload

import (
	"sttsim/internal/cache"
	"sttsim/internal/cpu"
)

// Mode selects the address-space organization.
type Mode int

const (
	// ModeShared is the multi-threaded mode (PARSEC, server workloads): all
	// cores share one address space and a fraction of hot accesses touch a
	// global shared region, exercising the coherence directory.
	ModeShared Mode = iota
	// ModePrivate is the multi-programmed mode (SPEC copies): each core owns
	// a disjoint address space, so there is no sharing.
	ModePrivate
)

// Working-set and burst-model parameters. HotLines is sized so the aggregate
// hot footprint (64 cores x 12K lines x 128B = 96MB) comfortably fits the
// 256MB STT-RAM L2 but overflows the 64MB SRAM L2 by ~1.5x — reproducing the
// capacity benefit that makes read-heavy workloads prefer STT-RAM (Section
// 4.2) without hand-tuning per-benchmark miss rates per technology.
const (
	// HotLinesPerCore is each core's hot working set, in cache lines (a
	// multiple of 64 so it stripes evenly over the banks). 64 cores x 6K
	// lines x 128B = 48MB, which fits even the 64MB SRAM L2; the capacity
	// advantage of the 4x denser STT-RAM is modeled explicitly via the
	// per-technology miss ratio (see sim.MissRatioFor).
	HotLinesPerCore = 6144
	// SharedHotLines is the globally shared hot region in ModeShared.
	SharedHotLines = 12288
	// SharedFraction is the probability a hot access touches the shared
	// region in ModeShared.
	SharedFraction = 0.25
)

// Two-state Markov burst model: in the burst state the core issues memory
// operations at a multiple of its calm rate and concentrates them on a
// single bank (reproducing the consecutive same-bank accesses of Figure 3).
// The calm rate is scaled down so the long-run average still matches the
// Table 3 rates.
const (
	burstFactorHigh = 3.0
	burstEnterHigh  = 0.004
	burstExitHigh   = 0.02

	burstFactorLow = 1.8
	burstEnterLow  = 0.002
	burstExitLow   = 0.025
)

// Generator produces one core's instruction stream from a profile; it
// implements cpu.Generator.
type Generator struct {
	prof Profile
	core int
	mode Mode
	rng  *Rand

	calmRead   float64 // per-instruction probability of an L2 read, calm state
	calmWrite  float64
	burstMul   float64
	enterBurst float64
	exitBurst  float64
	missRatio  float64

	inBurst   bool
	burstBank int
	numBanks  int // bank count burst/bank-pinned addresses target

	hotBase    uint64
	sharedBase uint64
	coldBase   uint64
	coldNext   uint64
}

// NewGeneratorBanks builds the stream for one core that stripes over
// numBanks banks. missRatio is the profile's native (STT-RAM) miss ratio, or
// a larger one to model the smaller SRAM L2's extra capacity misses.
// Streams with the same (profile, core, seed, miss ratio, bank count) are
// identical across runs.
func NewGeneratorBanks(prof Profile, core int, mode Mode, seed uint64, missRatio float64, numBanks int) *Generator {
	g := &Generator{
		prof:      prof,
		core:      core,
		mode:      mode,
		rng:       NewRand(seed ^ (uint64(core)+1)*0xA24BAED4963EE407),
		missRatio: missRatio,
		numBanks:  numBanks,
	}
	if prof.Bursty {
		g.burstMul = burstFactorHigh
		g.enterBurst = burstEnterHigh
		g.exitBurst = burstExitHigh
	} else {
		g.burstMul = burstFactorLow
		g.enterBurst = burstEnterLow
		g.exitBurst = burstExitLow
	}
	// Long-run burst-state occupancy and the matching calm-rate rescale.
	fb := g.enterBurst / (g.enterBurst + g.exitBurst)
	mean := (1 - fb) + g.burstMul*fb
	g.calmRead = prof.L2RPKI / 1000 / mean
	g.calmWrite = prof.L2WPKI / 1000 / mean

	// Address-space layout (line addresses): per-core hot region, global
	// shared region, and an unbounded cold stream; all disjoint.
	g.hotBase = (uint64(core) + 2) << 32
	g.sharedBase = 1 << 28
	g.coldBase = (uint64(core) + 2) << 44
	if mode == ModePrivate {
		// Keep the shared region unused but still core-private to be safe.
		g.sharedBase = g.hotBase
	}
	return g
}

// Profile returns the generator's benchmark profile.
func (g *Generator) Profile() Profile { return g.prof }

// HotFootprint returns every hot line address this generator can touch, for
// cache prewarming (the paper simulates 50M instructions per core; we warm
// the tags directly instead).
func (g *Generator) HotFootprint() []uint64 {
	return append(g.PrivateFootprint(), g.SharedFootprint()...)
}

// PrivateFootprint is the per-core segment of HotFootprint.
func (g *Generator) PrivateFootprint() []uint64 {
	lines := make([]uint64, 0, HotLinesPerCore)
	for i := uint64(0); i < HotLinesPerCore; i++ {
		lines = append(lines, g.hotBase+i)
	}
	return lines
}

// SharedFootprint is the globally shared segment of HotFootprint — identical
// for every ModeShared generator (and empty in ModePrivate), so cache
// prewarming needs to install it only once, not once per core.
func (g *Generator) SharedFootprint() []uint64 {
	if g.mode != ModeShared {
		return nil
	}
	lines := make([]uint64, 0, SharedHotLines)
	for i := uint64(0); i < SharedHotLines; i++ {
		lines = append(lines, g.sharedBase+i)
	}
	return lines
}

// Next implements cpu.Generator: classify the next instruction and, for L2
// accesses, produce its address.
func (g *Generator) Next() cpu.Access {
	// Markov state transition.
	if g.inBurst {
		if g.rng.Float64() < g.exitBurst {
			g.inBurst = false
		}
	} else if g.rng.Float64() < g.enterBurst {
		g.inBurst = true
		g.burstBank = g.rng.Intn(g.numBanks)
	}
	mul := 1.0
	if g.inBurst {
		mul = g.burstMul
	}
	r := g.rng.Float64()
	pr, pw := g.calmRead*mul, g.calmWrite*mul
	switch {
	case r < pr:
		// Loads head dependence chains: the core serializes on them, which
		// puts memory-bound profiles in the sub-1 IPC regime the paper's
		// 64-core system operates in.
		return cpu.Access{Kind: cpu.AccessRead, Addr: g.readAddress(), Serialize: true}
	case r < pr+pw:
		return cpu.Access{Kind: cpu.AccessWrite, Addr: g.writeAddress()}
	default:
		return cpu.Access{Kind: cpu.AccessNone}
	}
}

// readAddress draws the next L2 read line address: cold (guaranteed miss)
// with the profile's read-miss ratio, otherwise from a hot region. During a
// burst all addresses steer to the burst bank.
func (g *Generator) readAddress() uint64 {
	bank := -1
	if g.inBurst {
		bank = g.burstBank
	}
	if g.rng.Float64() < g.missRatio {
		return g.coldAddr(bank)
	}
	return g.hotOrShared(bank)
}

// writeAddress draws a writeback target: always a resident hot line.
func (g *Generator) writeAddress() uint64 {
	bank := -1
	if g.inBurst {
		bank = g.burstBank
	}
	return g.hotOrShared(bank)
}

func (g *Generator) hotOrShared(bank int) uint64 {
	if g.mode == ModeShared && g.rng.Float64() < SharedFraction {
		return g.hotAddr(g.sharedBase, SharedHotLines, bank)
	}
	return g.hotAddr(g.hotBase, HotLinesPerCore, bank)
}

// hotAddr picks a line in [base, base+lines), optionally pinned to a bank.
func (g *Generator) hotAddr(base uint64, lines int, bank int) uint64 {
	if bank < 0 {
		return cache.AddrOfLine(base + uint64(g.rng.Intn(lines)))
	}
	// Lines congruent to the bank index land in that bank.
	nb := uint64(g.numBanks)
	slot := uint64(g.rng.Intn(lines / g.numBanks))
	line := base + slot*nb
	return cache.AddrOfLine(line + uint64(bank)%nb - line%nb)
}

// coldAddr returns a never-before-seen line, optionally pinned to a bank.
func (g *Generator) coldAddr(bank int) uint64 {
	g.coldNext++
	nb := uint64(g.numBanks)
	line := g.coldBase + g.coldNext*nb
	if bank >= 0 {
		line += uint64(bank) % nb
	} else {
		line += g.rng.Uint64() % nb
	}
	return cache.AddrOfLine(line)
}

// ModeFor returns the natural sharing mode for a suite.
func ModeFor(s Suite) Mode {
	if s == SuiteSPEC {
		return ModePrivate
	}
	return ModeShared
}

// ProfileSlots is the length of Assignment.Profiles: one slot per core of the
// paper's 64-core system. A mesh with more cores reuses slot core%ProfileSlots.
// The config fingerprint hashes the whole array, so the length is fixed.
const ProfileSlots = 64

// Assignment maps each of the paper's 64 cores to a benchmark profile.
type Assignment struct {
	Name     string
	Profiles [ProfileSlots]Profile
	Mode     Mode
}

// Homogeneous runs one benchmark on all 64 cores — the paper's setup for
// Figure 6 (multi-threaded apps run 64 threads; SPEC apps run 64 copies).
func Homogeneous(p Profile) Assignment {
	a := Assignment{Name: p.Name, Mode: ModeFor(p.Suite)}
	for i := range a.Profiles {
		a.Profiles[i] = p
	}
	return a
}

// Mix distributes copies of the given profiles round-robin over the cores
// (16 copies each for 4 apps, 8 each for 8 apps, ...). Mixes are always
// multi-programmed.
func Mix(name string, profs []Profile) Assignment {
	a := Assignment{Name: name, Mode: ModePrivate}
	for i := range a.Profiles {
		a.Profiles[i] = profs[i%len(profs)]
	}
	return a
}

// Case1 is the paper's worst case: 16 copies each of four write-intensive
// applications (soplex, cactus, lbm, hmmer).
func Case1() Assignment {
	return Mix("case1", []Profile{
		MustByName("soplex"), MustByName("cactus"),
		MustByName("lbm"), MustByName("hmmer"),
	})
}

// Case2 mixes two bursty write-intensive apps (lbm, hmmer) with two
// read-intensive apps (bzip2, libquantum), 16 copies each.
func Case2() Assignment {
	return Mix("case2", []Profile{
		MustByName("lbm"), MustByName("hmmer"),
		MustByName("bzip2"), MustByName("libqntm"),
	})
}

// Case3 builds the paper's 32 random 8-app mixes: 8 read-intensive mixes, 8
// write-intensive mixes, and 16 mixed-behavior mixes, drawn deterministically
// from the given seed.
func Case3(seed uint64) []Assignment {
	rng := NewRand(seed)
	var readInt, writeInt []Profile
	for _, p := range Profiles {
		if p.ReadIntensive() {
			readInt = append(readInt, p)
		}
		if p.WriteIntensive() {
			writeInt = append(writeInt, p)
		}
	}
	pick := func(pool []Profile, n int) []Profile {
		out := make([]Profile, n)
		for i := range out {
			out[i] = pool[rng.Intn(len(pool))]
		}
		return out
	}
	var mixes []Assignment
	for i := 0; i < 8; i++ {
		mixes = append(mixes, Mix("case3-read", pick(readInt, 8)))
	}
	for i := 0; i < 8; i++ {
		mixes = append(mixes, Mix("case3-write", pick(writeInt, 8)))
	}
	for i := 0; i < 16; i++ {
		mixes = append(mixes, Mix("case3-mixed", pick(Profiles, 8)))
	}
	return mixes
}
