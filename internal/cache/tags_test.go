package cache

import (
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
	base := ta.setBase(lineAddr)
	for w := base; w < base+Associativity; w++ {
		if t := ta.tags[w]; t&tagValid != 0 && t&tagAddr == lineAddr {
			return w
		}
	}
	return -1
}

// holes counts used ways that hold no valid line, and fails the test if any
// set's used ways do not form a prefix.
func holes(t *testing.T, ta *tagArray) int {
	t.Helper()
	n := 0
	for base := 0; base < len(ta.tags); base += Associativity {
		unused := false
		for w := base; w < base+Associativity; w++ {
			switch tw := ta.tags[w]; {
			case tw == 0:
				unused = true
			case unused:
				t.Fatalf("set %d: way %d is used after a never-used way", base/Associativity, w-base)
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

// TestTagImageMatchesPreloadBatch: a bank built around a tag image holds
// exactly the tags PreloadBatch installs, and NewBankControllerTags takes the
// image it is given without copying.
func TestTagImageMatchesPreloadBatch(t *testing.T) {
	var lines []uint64
	for l := uint64(0); l < 9000; l++ {
		lines = append(lines, LineAddr(bankAddr(l*5)))
	}
	want := testBank(t, mem.SRAM)
	want.PreloadBatch(lines)
	img := NewTagImage(DefaultAddrMap(), mem.SRAM.CapacityMB, lines)
	got := NewBankControllerTags(64, mem.NewBank(mem.SRAM), nil, img)
	for w := range want.tags {
		if got.tags[w] != want.tags[w] {
			t.Fatalf("way %d: image %#x, PreloadBatch %#x", w, got.tags[w], want.tags[w])
		}
	}
	if &got.tags[0] != &img[0] {
		t.Fatal("the controller copied the tag words it was given")
	}
}
