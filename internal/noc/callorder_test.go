package noc

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"
)

// recordingPrioritizer answers Priority with 0, 1 or PriorityHold from a hash
// of (at, packet ID, now), and folds every Priority and OnForward call, in call
// order, into one SHA-256 digest. Two router implementations that make the
// same arbitration calls with the same arguments in the same order produce the
// same digest; one extra, missing or reordered call changes it.
type recordingPrioritizer struct {
	h     hash.Hash
	rec   [25]byte
	calls int
}

func newRecordingPrioritizer() *recordingPrioritizer {
	return &recordingPrioritizer{h: sha256.New()}
}

func (rp *recordingPrioritizer) fold(op byte, at NodeID, p *Packet, now uint64, prio int) {
	rp.rec[0] = op
	binary.LittleEndian.PutUint32(rp.rec[1:], uint32(at))
	binary.LittleEndian.PutUint64(rp.rec[5:], p.ID)
	binary.LittleEndian.PutUint64(rp.rec[13:], now)
	binary.LittleEndian.PutUint32(rp.rec[21:], uint32(prio))
	rp.h.Write(rp.rec[:])
	rp.calls++
}

func (rp *recordingPrioritizer) Priority(at NodeID, p *Packet, now uint64) int {
	prio := 0
	switch splitmix64(splitmix64(splitmix64(uint64(at))^p.ID)^now) % 8 {
	case 5, 6:
		prio = 1
	case 7:
		prio = PriorityHold
	}
	rp.fold('P', at, p, now, prio)
	return prio
}

func (rp *recordingPrioritizer) OnForward(at NodeID, p *Packet, now uint64) {
	rp.fold('F', at, p, now, 0)
}

func (rp *recordingPrioritizer) digest() string { return hex.EncodeToString(rp.h.Sum(nil)) }

// splitmix64 is a fixed 64-bit mixer, so the storm and the priority answers
// never depend on a library's random-number stream.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// arbitrationCallDigest drives a seeded storm of every packet kind between
// random node pairs for 2000 cycles over the paper's region-TSB routing with
// wide TSBs, with shut-and-open gates on a band of cache banks, drains it, and
// returns the recording prioritizer's digest and call count.
func arbitrationCallDigest(t *testing.T, vcs []int, seed uint64) (string, int) {
	t.Helper()
	rp := newRecordingPrioritizer()
	n := mustNetwork(t, Config{
		Routing:     mustRouting(t, PathRegionTSBs, paperTSBMap()),
		VCsPerClass: vcs,
		WideTSBs:    []NodeID{27, 28, 35, 36},
		Prioritizer: rp,
	})
	for d := NodeID(0); d < NodeID(paper.NumNodes()); d++ {
		n.SetDeliver(d, func(*Packet, uint64) {})
	}
	// Gated banks refuse deliveries one 32-cycle window in three, which backs
	// flits up behind the local ejection port.
	for d := paper.BankNode(0); d < NodeID(paper.NumNodes()); d += 5 {
		n.NIC(d).SetGate(func(p *Packet, now uint64) bool { return (now/32+uint64(d))%3 != 0 })
	}
	rng, nodes := seed, uint64(paper.NumNodes())
	now := uint64(0)
	for ; now < 2000; now++ {
		for i := 0; i < 3; i++ {
			rng = splitmix64(rng)
			src := NodeID(rng % nodes)
			dst := NodeID(rng >> 8 % nodes)
			if src == dst {
				continue
			}
			n.Inject(&Packet{Kind: Kind(rng >> 16 % uint64(numKinds)), Src: src, Dst: dst}, now)
		}
		step(t, n, now)
	}
	drain(t, n, now, 200000)
	if err := n.CheckInvariants(); err != nil {
		t.Fatalf("invariants after drain: %v", err)
	}
	return rp.digest(), rp.calls
}

// TestArbitrationCallOrder pins the exact sequence of Priority and OnForward
// calls the routers make under mixed-class traffic, for the default VC split
// and for the ExtraReqVC split (a fourth request VC, seven per port). The
// bank-aware prioritizer counts its delay decisions, so the call sequence is
// observable in the statistics; a change to the VA or SA walk must leave these
// digests as they are.
func TestArbitrationCallOrder(t *testing.T) {
	for _, c := range []struct {
		name  string
		vcs   []int
		calls int
		want  string
	}{
		{"vcs-3-2-1", []int{3, 2, 1}, 272966, "ee73be20c403579439666797089c1c0896118e97c6f7d22d61c4a81d6dd5f356"},
		{"vcs-4-2-1", []int{4, 2, 1}, 272705, "c49a3f742d295945dad00de0ac5208e57f04fcf1f4dac27a23ce02dcbd995187"},
	} {
		t.Run(c.name, func(t *testing.T) {
			got, calls := arbitrationCallDigest(t, c.vcs, 1)
			if calls != c.calls || got != c.want {
				t.Errorf("arbitration calls = %d, digest %s; want %d, %s", calls, got, c.calls, c.want)
			}
		})
	}
}
