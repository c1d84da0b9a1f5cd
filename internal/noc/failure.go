package noc

import (
	"fmt"
	"strings"
)

// PacketDump is a structured snapshot of one in-flight packet, captured when
// the network reports a failure (deadlock watchdog, invariant violation).
type PacketDump struct {
	ID        uint64
	Kind      Kind
	Class     Class
	Src       NodeID
	Dst       NodeID
	At        NodeID // node currently holding the packet
	Where     string // location detail, e.g. "router port W vc 2" or "nic queue"
	Injected  uint64
	Hops      int
	SizeFlits int
}

// String renders the dump in one line.
func (d PacketDump) String() string {
	return fmt.Sprintf("pkt %d %s(%s) %d->%d at %d (%s) injected@%d hops=%d flits=%d",
		d.ID, d.Kind, d.Class, d.Src, d.Dst, d.At, d.Where, d.Injected, d.Hops, d.SizeFlits)
}

// DumpInFlight snapshots every packet the network currently holds: packets
// occupying router input VCs, packets queued or streaming at source NICs, and
// reassembled packets a NIC gate is refusing. The slice is ordered by node
// then location, so dumps are deterministic.
func (n *Network) DumpInFlight() []PacketDump {
	var out []PacketDump
	for id := NodeID(0); id < NodeID(n.numNodes); id++ {
		r := &n.routers[id]
		for b := range r.vcs {
			st := &r.vcs[b]
			if st.pkt == nil || st.n == 0 {
				continue
			}
			out = append(out, dumpOf(st.pkt, id, fmt.Sprintf("router port %s vc %d (%d flits buffered)",
				Port(b/maxVCsPerPort), b%maxVCsPerPort, st.n)))
		}
	}
	for id := NodeID(0); id < NodeID(n.numNodes); id++ {
		nic := n.nics[id]
		for c := range nic.queues {
			for _, p := range nic.queues[c] {
				out = append(out, dumpOf(p, id, "nic injection queue"))
			}
		}
		for _, s := range nic.streams {
			out = append(out, dumpOf(s.pkt, id, fmt.Sprintf("nic stream (next flit %d)", s.next)))
		}
		for c := range nic.blocked {
			for _, p := range nic.blocked[c] {
				out = append(out, dumpOf(p, id, "nic gated (sink refused)"))
			}
		}
	}
	return out
}

func dumpOf(p *Packet, at NodeID, where string) PacketDump {
	return PacketDump{
		ID: p.ID, Kind: p.Kind, Class: p.Class, Src: p.Src, Dst: p.Dst,
		At: at, Where: where, Injected: p.Injected, Hops: p.Hops, SizeFlits: p.SizeFlits,
	}
}

// DeadlockError reports the deadlock watchdog firing: packets are in flight
// but no flit has moved for over the watchdog window. It carries the full
// stalled-packet dump for post-mortem analysis.
type DeadlockError struct {
	Now      uint64 // cycle the watchdog fired
	LastMove uint64 // last cycle any flit moved
	InFlight int    // packets injected but not delivered
	Stalled  []PacketDump
}

// Error implements error with a compact summary plus the first few stalled
// packets.
func (e *DeadlockError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "noc: deadlock watchdog: %d packets in flight, no flit movement since cycle %d (now %d)",
		e.InFlight, e.LastMove, e.Now)
	max := len(e.Stalled)
	if max > 5 {
		max = 5
	}
	for _, d := range e.Stalled[:max] {
		fmt.Fprintf(&b, "\n  %s", d.String())
	}
	if len(e.Stalled) > max {
		fmt.Fprintf(&b, "\n  ... and %d more", len(e.Stalled)-max)
	}
	return b.String()
}
