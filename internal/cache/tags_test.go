package cache

import (
	"slices"
	"testing"

	"sttsim/internal/mem"
	"sttsim/internal/noc"
)

// switchFaults fails every consulted write while on.
type switchFaults struct{ on bool }

func (s *switchFaults) WriteFails(bank int) bool { return s.on }

// fullScan is lookup without its early exit: it checks all Associativity
// ways of the set.
func fullScan(ta *tagArray, lineAddr uint64) int {
	s := ta.setOf(lineAddr)
	for i, t := range &ta.set(s).tags {
		if t&tagValid != 0 && t&tagAddr == lineAddr {
			return s*Associativity + i
		}
	}
	return -1
}

// holes counts used ways that hold no valid line, and fails the test if any
// set's used ways do not form a prefix.
func holes(t *testing.T, ta *tagArray) int {
	t.Helper()
	n := 0
	for s := 0; s < ta.numSets; s++ {
		unused := false
		for i, tw := range &ta.set(s).tags {
			switch {
			case tw == 0:
				unused = true
			case unused:
				t.Fatalf("set %d: way %d is used after a never-used way", s, i)
			case tw&tagValid == 0:
				n++
			}
		}
	}
	return n
}

// TestUsedWaysStayAPrefix: after write faults invalidate preloaded lines in
// the middle of their sets and later writes re-allocate ways (reusing the
// invalidated ones and evicting), every set's used ways still form a prefix,
// and the early-exit lookup agrees with a full scan of the set on resident,
// invalidated and never-seen lines alike.
func TestUsedWaysStayAPrefix(t *testing.T) {
	bc := testBank(t, mem.SRAM) // 512 sets, 8192 ways
	faults := &switchFaults{}
	bc.SetWriteFaults(faults, 0, 1)
	var now uint64
	write := func(line uint64) {
		bc.HandlePacket(&noc.Packet{Kind: noc.KindWriteReq, Addr: bankAddr(line), Proc: 1, Src: 1}, now)
		runUntil(t, bc, &now, 1)
	}

	const preloaded, written = 4096, 6000
	for l := uint64(0); l < preloaded; l++ {
		bc.Preload(LineAddr(bankAddr(l)))
	}
	faults.on = true
	for l := uint64(0); l < preloaded; l += 3 {
		write(l)
	}
	faults.on = false
	before := holes(t, &bc.tagArray)
	if got := bc.Stats().LinesInvalidated; got == 0 || before == 0 {
		t.Fatalf("faults invalidated %d lines, leaving %d holes; want both > 0", got, before)
	}
	for l := uint64(preloaded); l < preloaded+written; l++ {
		write(l)
	}
	if after := holes(t, &bc.tagArray); after >= before {
		t.Fatalf("re-allocation left %d of %d invalidated ways unused", after, before)
	}
	if bc.Stats().Evictions == 0 {
		t.Fatal("no evictions: the bank never filled a set")
	}
	for l := uint64(0); l < preloaded+written+1000; l++ {
		la := LineAddr(bankAddr(l))
		if got, want := bc.lookup(la), fullScan(&bc.tagArray, la); got != want {
			t.Fatalf("line %d: lookup found way %d, full scan %d", l, got, want)
		}
	}
}

// TestTagImageMatchesPreloadBatch: a bank built on a tag image holds
// exactly the tags PreloadBatch installs, and writing lines into it leaves
// the image as it was.
func TestTagImageMatchesPreloadBatch(t *testing.T) {
	var lines []uint64
	for l := uint64(0); l < 9000; l++ {
		lines = append(lines, LineAddr(bankAddr(l*5)))
	}
	want := testBank(t, mem.SRAM)
	want.PreloadBatch(lines)
	img := NewTagImage(paper, mem.SRAM.CapacityMB, lines)
	orig := slices.Clone(img)
	got := NewBankControllerTags(64, mem.NewBank(mem.SRAM), paper, img)
	for s := 0; s < got.numSets; s++ {
		if g, w := got.set(s).tags, want.set(s).tags; g != w {
			t.Fatalf("set %d: image %#x, PreloadBatch %#x", s, g, w)
		}
	}
	var now uint64
	for l := uint64(0); l < 3000; l += 7 {
		got.HandlePacket(&noc.Packet{Kind: noc.KindWriteReq, Addr: bankAddr(l), Proc: 1, Src: 1}, now)
		runUntil(t, got, &now, 1)
	}
	if got.Stats().Evictions == 0 {
		t.Fatal("no evictions: the writes never filled a set")
	}
	if !slices.Equal(img, orig) {
		t.Fatal("the bank wrote to its tag image")
	}
}

// TestEvictionRecallsSharers: a write that evicts a line its readers still
// hold recalls the line from those readers, and only from them.
func TestEvictionRecallsSharers(t *testing.T) {
	bc := testBank(t, mem.SRAM)
	// Seventeen lines of one set other than set 0, so a handle that lost its
	// set would land elsewhere.
	var lines []uint64
	target := -1
	for l := uint64(0); len(lines) < Associativity+1; l++ {
		la := LineAddr(bankAddr(l))
		switch s := bc.setOf(la); {
		case target < 0 && s != 0:
			target = s
			fallthrough
		case s == target:
			lines = append(lines, la)
		}
	}
	var now uint64
	for core, la := range lines[:Associativity] {
		bc.Preload(la)
		bc.HandlePacket(&noc.Packet{Kind: noc.KindReadReq, Addr: AddrOfLine(la), Proc: core, Src: noc.NodeID(core)}, now)
		if p := runUntil(t, bc, &now, 1)[0]; p.Kind != noc.KindReadResp {
			t.Fatalf("read of line %d: got %s, want a hit", core, p.Kind)
		}
	}
	const writer = 40
	bc.HandlePacket(&noc.Packet{Kind: noc.KindWriteReq, Addr: AddrOfLine(lines[Associativity]), Proc: writer, Src: writer}, now)
	var invs []*noc.Packet
	for _, p := range runUntil(t, bc, &now, 2) {
		if p.Kind == noc.KindInv {
			invs = append(invs, p)
		}
	}
	if ev := bc.Stats().Evictions; ev != 1 {
		t.Fatalf("%d evictions, want 1", ev)
	}
	// Line 0 was read first, so it is the least recently used.
	if len(invs) != 1 || invs[0].Dst != 0 || invs[0].Addr != AddrOfLine(lines[0]) {
		t.Fatalf("invalidations %v, want one for line %#x to core 0", invs, AddrOfLine(lines[0]))
	}
}

// TestReleasedSetsCarryNothingOver: a bank built on storage another bank
// used and scribbled over reads exactly what a bank on fresh storage reads,
// and neither writes to the image they share.
func TestReleasedSetsCarryNothingOver(t *testing.T) {
	// About three lines in every set, as the prewarm leaves them, and one
	// full set.
	ta := tagArray{am: paper, numSets: SetsFor(mem.SRAM.CapacityMB)}
	var lines []uint64
	for l := uint64(0); l < 3*512; l++ {
		lines = append(lines, LineAddr(bankAddr(l*3)))
	}
	full := ta.setOf(lines[0])
	for l, n := uint64(1<<20), 0; n < Associativity; l++ {
		if la := LineAddr(bankAddr(l)); ta.setOf(la) == full {
			lines = append(lines, la)
			n++
		}
	}
	img := NewTagImage(paper, mem.SRAM.CapacityMB, lines)
	orig := slices.Clone(img)

	// Bank A takes write faults, reads from many cores, evictions and dirty
	// writebacks.
	a := NewBankControllerTags(64, mem.NewBank(mem.SRAM), paper, img)
	faults := &switchFaults{}
	a.SetWriteFaults(faults, 0, 1)
	var now uint64
	access := func(kind noc.Kind, line uint64, core int) {
		a.HandlePacket(&noc.Packet{Kind: kind, Addr: bankAddr(line), Proc: core, Src: noc.NodeID(core)}, now)
		for _, p := range runUntil(t, a, &now, 1) {
			if p.Kind == noc.KindMemReq && !p.IsBankWrite {
				a.HandlePacket(&noc.Packet{Kind: noc.KindMemResp, Addr: p.Addr}, now)
			}
		}
	}
	faults.on = true
	for l := uint64(0); l < 600; l += 9 {
		access(noc.KindWriteReq, l, 2)
	}
	faults.on = false
	for l := uint64(0); l < 3000; l++ {
		access(noc.KindReadReq, l*3, int(l%64))
		access(noc.KindWriteReq, 5000+l, int(l%7))
	}
	st := a.Stats()
	if st.LinesInvalidated == 0 || st.Evictions == 0 || st.Writebacks == 0 || st.InvSent == 0 {
		t.Fatalf("bank A stats %+v: want invalidated lines, evictions, writebacks and invalidations", st)
	}

	// Scribble over A's records and bitmap, as a bank of another run would
	// leave them, and hand them straight to bank B.
	store := a.setStore
	a.setStore = nil
	poison := setState{}
	for i := range poison.tags {
		poison.tags[i] = tagUsed | tagValid | tagDirty | LineAddr(bankAddr(uint64(i)*3))
		poison.sharers[i] = ^uint64(0)
		poison.lastUse[i] = 0xdead_beef + uint64(i)
	}
	for s := range store.sets {
		store.sets[s] = poison
	}
	for i := range store.inited {
		store.inited[i] = ^uint64(0)
	}
	b := newBankController(64, mem.NewBank(mem.SRAM), paper, img, store)
	fresh := NewBankControllerTags(64, mem.NewBank(mem.SRAM), paper, img)
	if fresh.setStore == store {
		t.Fatal("the fresh bank took the scribbled storage")
	}

	// The first eviction in the full set picks the way a fresh bank picks.
	var newLine uint64
	for l := uint64(1 << 21); ; l++ {
		if newLine = LineAddr(bankAddr(l)); ta.setOf(newLine) == full {
			break
		}
	}
	var victims [2]int
	for i, bc := range []*BankController{b, fresh} {
		now := uint64(0)
		bc.HandlePacket(&noc.Packet{Kind: noc.KindWriteReq, Addr: AddrOfLine(newLine), Proc: 1, Src: 1}, now)
		if p := runUntil(t, bc, &now, 1); len(p) != 1 || p[0].Kind != noc.KindWriteAck {
			t.Fatalf("bank %d: write sent %v, want one ack", i, p)
		}
		victims[i] = bc.lookup(newLine)
	}
	if victims[0] != victims[1] || victims[0] < 0 || b.Stats().Evictions != 1 {
		t.Fatalf("full set %d: recycled bank wrote way %d, fresh bank way %d", full, victims[0], victims[1])
	}

	for l := uint64(0); l < 6000; l++ {
		la := LineAddr(bankAddr(l))
		if got, want := b.lookup(la), fullScan(&b.tagArray, la); got != want {
			t.Fatalf("line %d: lookup found way %d, full scan %d", l, got, want)
		}
	}
	for s := 0; s < b.numSets; s++ {
		got, want := b.set(s), fresh.set(s)
		if *got != *want {
			t.Fatalf("set %d: recycled record %+v, fresh %+v", s, *got, *want)
		}
		if s != full && (got.tags != [Associativity]uint64(img[s*Associativity:(s+1)*Associativity]) ||
			got.sharers != [Associativity]uint64{} || got.lastUse != [Associativity]uint64{}) {
			t.Fatalf("set %d reads %+v, not the image with no sharers and no LRU stamps", s, *got)
		}
	}
	if !slices.Equal(img, orig) {
		t.Fatal("a bank wrote to the image")
	}
}
