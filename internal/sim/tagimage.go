package sim

import (
	"sync"

	"sttsim/internal/cache"
	"sttsim/internal/noc"
	"sttsim/internal/workload"
)

// A tag image is the tag words New's L2 prewarm leaves in one bank: every
// generator's hot footprint installed into empty banks. The footprint depends
// only on the topology (core count and bank interleaving) and the sharing
// mode, and a bank's set geometry only on its capacity — never on seed,
// profile or scheme — so one image serves that bank in every run that shares
// those three, and the process keeps the images it builds in tagImages.
// Keying each bank apart lets a hybrid run take its SRAM banks from the SRAM
// capacity's images and build only the banks it uses.
type imageKey struct {
	topo       noc.Topology
	mode       workload.Mode
	capacityMB int
	bank       int
}

// tagImageBudget bounds the bytes of tag words tagImages holds. An 8x8x2
// system's images take 4 MiB per MB of bank capacity, so both sharing modes
// of every registered tech profile (1, 2, 4 and 16 MB banks) take 184 MiB.
const tagImageBudget = 256 << 20

// tagImages is the process-wide image memo. Banks only read their images,
// so concurrent runs share them safely.
var tagImages = imageMemo{budget: tagImageBudget}

// imageMemo is a mutex-guarded, byte-budgeted memo of tag images with
// least-recently-used eviction.
type imageMemo struct {
	mu      sync.Mutex
	budget  int
	bytes   int
	clock   uint64
	entries map[imageKey]*imageEntry
}

type imageEntry struct {
	words    []uint64
	lastUsed uint64
}

// get returns the image of every key. It builds the images the memo lacks
// with build(i), outside the lock, and stores them if together they fit the
// budget, evicting the least recently used images to make room.
func (m *imageMemo) get(keys []imageKey, build func(i int) []uint64) [][]uint64 {
	imgs := make([][]uint64, len(keys))
	var missing []int
	m.mu.Lock()
	for i, k := range keys {
		if e := m.entries[k]; e != nil {
			m.clock++
			e.lastUsed = m.clock
			imgs[i] = e.words
		} else {
			missing = append(missing, i)
		}
	}
	m.mu.Unlock()
	if len(missing) == 0 {
		return imgs
	}
	size := 0
	for _, i := range missing {
		imgs[i] = build(i)
		size += 8 * len(imgs[i])
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if size > m.budget {
		return imgs
	}
	if m.entries == nil {
		m.entries = make(map[imageKey]*imageEntry)
	}
	for _, i := range missing {
		if m.entries[keys[i]] != nil {
			continue // a concurrent build of the same bank stored its image first
		}
		for m.bytes+8*len(imgs[i]) > m.budget {
			m.evictLRU()
		}
		m.clock++
		m.entries[keys[i]] = &imageEntry{words: imgs[i], lastUsed: m.clock}
		m.bytes += 8 * len(imgs[i])
	}
	return imgs
}

// evictLRU drops the least recently used image; m.mu must be held.
func (m *imageMemo) evictLRU() {
	var lru imageKey
	var oldest *imageEntry
	for k, e := range m.entries {
		if oldest == nil || e.lastUsed < oldest.lastUsed {
			lru, oldest = k, e
		}
	}
	delete(m.entries, lru)
	m.bytes -= 8 * len(oldest.words)
}

// prewarmLines gathers every generator's hot footprint by home bank, in the
// order the lines are installed: core 0's private lines, the shared segment
// (the same for every generator, and empty in ModePrivate), then core 1's
// private lines, and so on.
func prewarmLines(am *cache.AddrMap, gens []*workload.Generator) [][]uint64 {
	var segs [][]uint64
	for i, g := range gens {
		segs = append(segs, g.PrivateFootprint())
		if i == 0 {
			segs = append(segs, g.SharedFootprint())
		}
	}
	// Footprints are runs of consecutive lines, which stripe evenly over the
	// banks, so each bank's batch is sized for an even share up front.
	total := 0
	for _, seg := range segs {
		total += len(seg)
	}
	nb := am.NumBanks()
	batches := make([][]uint64, nb)
	for b := range batches {
		batches[b] = make([]uint64, 0, (total+nb-1)/nb)
	}
	for _, seg := range segs {
		for _, lineAddr := range seg {
			b := am.HomeBank(cache.AddrOfLine(lineAddr))
			batches[b] = append(batches[b], lineAddr)
		}
	}
	return batches
}
