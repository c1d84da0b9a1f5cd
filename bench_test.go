// Package sttsim's root benchmark harness: one testing.B benchmark per table
// and figure of the paper's evaluation (each regenerates the corresponding
// rows/series through internal/exp at a reduced cycle budget), plus
// micro-benchmarks of the substrates (network, bank, workload generator,
// whole-system cycle rate).
//
// Regenerate everything with:
//
//	go test -bench=. -benchmem
//
// and the full-scale tables with:
//
//	go run ./cmd/experiments
package sttsim_test

import (
	"bytes"
	"io"
	"testing"

	"sttsim/internal/cache"
	"sttsim/internal/exp"
	"sttsim/internal/mem"
	"sttsim/internal/noc"
	"sttsim/internal/obs"
	"sttsim/internal/sim"
	"sttsim/internal/trace"
	"sttsim/internal/workload"
)

// benchRunner builds a fresh memoizing runner at benchmark scale.
func benchRunner() *exp.Runner {
	return exp.NewRunner(exp.Options{Quick: true, WarmupCycles: 1500, MeasureCycles: 4000})
}

func must(b *testing.B, err error) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
}

// ---------------------------------------------------------------------------
// Paper tables and figures.
// ---------------------------------------------------------------------------

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Table2(io.Discard)
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Table3(benchRunner())
		must(b, err)
		exp.PrintTable3(io.Discard, rows)
	}
}

func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		entries, err := exp.Figure3(benchRunner())
		must(b, err)
		exp.PrintFigure3(io.Discard, entries)
	}
}

func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.Figure6(benchRunner())
		must(b, err)
		exp.PrintFigure6(io.Discard, res)
	}
}

func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		entries, err := exp.Figure7(benchRunner())
		must(b, err)
		exp.PrintFigure7(io.Discard, entries)
	}
}

func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		entries, err := exp.Figure8(benchRunner())
		must(b, err)
		exp.PrintFigure8(io.Discard, entries)
	}
}

func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cases, err := exp.Figure9(benchRunner())
		must(b, err)
		exp.PrintFigure9(io.Discard, cases)
	}
}

func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		entries, err := exp.Figure10(benchRunner())
		must(b, err)
		exp.PrintFigure10(io.Discard, entries)
	}
}

func BenchmarkFigure12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := exp.Figure12(benchRunner())
		must(b, err)
		exp.PrintFigure12(io.Discard, points)
	}
}

func BenchmarkFigure13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.Figure13(benchRunner())
		must(b, err)
		exp.PrintFigure13(io.Discard, res)
	}
}

func BenchmarkFigure14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		entries, err := exp.Figure14(benchRunner())
		must(b, err)
		exp.PrintFigure14(io.Discard, entries)
	}
}

// ---------------------------------------------------------------------------
// Per-scheme whole-system simulation rate (cycles of the 128-node CMP per
// wall-clock second) on the paper's heaviest server workload.
// ---------------------------------------------------------------------------

func benchScheme(b *testing.B, s sim.Scheme) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := sim.Run(sim.Config{
			Scheme:        s,
			Assignment:    workload.Homogeneous(workload.MustByName("tpcc")),
			WarmupCycles:  1000,
			MeasureCycles: 4000,
		})
		must(b, err)
	}
}

func BenchmarkSchemeSRAM64TSB(b *testing.B)  { benchScheme(b, sim.SchemeSRAM64TSB) }
func BenchmarkSchemeSTT64TSB(b *testing.B)   { benchScheme(b, sim.SchemeSTT64TSB) }
func BenchmarkSchemeSTT4TSB(b *testing.B)    { benchScheme(b, sim.SchemeSTT4TSB) }
func BenchmarkSchemeSTT4TSBSS(b *testing.B)  { benchScheme(b, sim.SchemeSTT4TSBSS) }
func BenchmarkSchemeSTT4TSBRCA(b *testing.B) { benchScheme(b, sim.SchemeSTT4TSBRCA) }
func BenchmarkSchemeSTT4TSBWB(b *testing.B)  { benchScheme(b, sim.SchemeSTT4TSBWB) }

// BenchmarkFullRun is the bench-guard's end-to-end gate: one complete
// sim.Run (construction, warmup, measurement, result extraction) per
// iteration for each contended scheme family of the paper. Unlike the cycle
// micro-benchmarks there is no amortization across b.N — ns/op and allocs/op
// are per whole run, so allocs/op is deterministic and comparable across
// hosts.
func BenchmarkFullRun(b *testing.B) {
	for _, c := range []struct {
		name   string
		scheme sim.Scheme
	}{
		{"baseline", sim.SchemeSTT4TSB},
		{"ss", sim.SchemeSTT4TSBSS},
		{"rca", sim.SchemeSTT4TSBRCA},
		{"wb", sim.SchemeSTT4TSBWB},
	} {
		b.Run(c.name, func(b *testing.B) { benchScheme(b, c.scheme) })
	}
}

// ---------------------------------------------------------------------------
// Substrate micro-benchmarks.
// ---------------------------------------------------------------------------

// BenchmarkNetworkTick measures the router datapath alone at fixed
// occupancy: the 128-router network with no core or bank models, and each
// core's one 9-flit write request in a closed loop with a bank. Every
// delivery re-injects the packet with source and destination swapped, so 64
// packets stay in flight and the loop allocates nothing; the timer starts
// after a 2,000-cycle warmup. The bench guard pins it at 0 allocs/op.
func BenchmarkNetworkTick(b *testing.B) {
	topo := noc.DefaultTopology()
	routing, err := noc.NewRoutingTopo(topo, noc.PathAllTSVs, nil)
	must(b, err)
	n, err := noc.NewNetwork(noc.Config{Routing: routing})
	must(b, err)
	bounce := func(p *noc.Packet, at uint64) {
		p.Src, p.Dst = p.Dst, p.Src
		n.Inject(p, at)
	}
	for d := noc.NodeID(0); d < noc.NodeID(topo.NumNodes()); d++ {
		n.SetDeliver(d, bounce)
	}
	for c := 0; c < topo.NumCores(); c++ {
		n.Inject(&noc.Packet{Kind: noc.KindWriteReq, Src: noc.NodeID(c),
			Dst: topo.BankNode(c * 7 % topo.NumBanks())}, 0)
	}
	now := uint64(0)
	step := func() {
		if err := n.Step(now); err != nil {
			b.Fatal(err)
		}
		now++
	}
	for now < 2000 {
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// BenchmarkBankController measures one STT-RAM L2 bank controller alone: a
// bank built on a tag image with every set full of preloaded lines, drawing
// its packets from a pool, serves a closed loop of one request at a time.
// Two requests in three read a preloaded line for a rotating core; the third
// writes back a line the bank has never held. So lookups, LRU and directory
// updates, allocation, eviction with sharer recalls and dirty writebacks all
// run, and a read whose line was evicted is answered by memory at once. One
// op is one request, from arrival to its response; the timer starts after
// 20,000 requests, and the bench guard pins it at 0 allocs/op.
func BenchmarkBankController(b *testing.B) {
	topo := noc.DefaultTopology()
	am := cache.DefaultAddrMap()
	node := topo.BankNode(0)
	preloaded := uint64(cache.SetsFor(mem.STTRAM.CapacityMB) * cache.Associativity)
	lines := make([]uint64, preloaded)
	for l := range lines {
		lines[l] = cache.LineAddr(am.ComposeAddr(0, uint64(l)))
	}
	bc := cache.NewBankControllerTags(node, mem.NewBank(mem.STTRAM), am,
		cache.NewTagImage(am, mem.STTRAM.CapacityMB, lines))
	pool := noc.NewPacketPool()
	bc.UsePool(pool)
	now, fresh := uint64(0), preloaded
	request := func(i int) {
		core := i % topo.NumCores()
		req := noc.Packet{Kind: noc.KindReadReq, Src: noc.NodeID(core), Dst: node, Proc: core,
			Addr: am.ComposeAddr(0, uint64(i)*7%preloaded)}
		if i%3 == 2 {
			req.Kind, req.Addr = noc.KindWriteReq, am.ComposeAddr(0, fresh)
			fresh++
		}
		p := pool.NewFrom(req)
		bc.HandlePacket(p, now)
		pool.Put(p)
		for done := false; !done; now++ {
			bc.Tick(now)
			var missed *noc.Packet
			for _, p := range bc.Outbox() {
				switch {
				case p.Kind == noc.KindMemReq && !p.IsBankWrite:
					missed = p
					continue
				case p.Dst == req.Src && (p.Kind == noc.KindReadResp || p.Kind == noc.KindWriteAck):
					done = true
				}
				pool.Put(p)
			}
			if missed != nil {
				// Memory answers at once. The fill goes in only after the
				// drain: the bank's reply to it reuses the outbox walked
				// above.
				p := pool.NewFrom(noc.Packet{Kind: noc.KindMemResp, Src: missed.Dst, Dst: node, Addr: missed.Addr})
				pool.Put(missed)
				bc.HandlePacket(p, now)
				pool.Put(p)
			}
		}
	}
	i := 0
	for ; i < 20000; i++ {
		request(i)
	}
	st := bc.Stats()
	if st.ReadHits == 0 || st.ReadMisses == 0 || st.Evictions == 0 || st.Writebacks == 0 || st.InvSent == 0 {
		b.Fatalf("warmup stats %+v: want hits, misses, evictions, writebacks and recalls", st)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		request(i + n)
	}
}

// BenchmarkBankService measures the raw bank model throughput under a
// read/write mix.
func BenchmarkBankService(b *testing.B) {
	bank := mem.NewBank(mem.STTRAM)
	now := uint64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if bank.QueueLen() < 4 {
			op := mem.OpRead
			if i%3 == 0 {
				op = mem.OpWrite
			}
			bank.Enqueue(&mem.Request{Op: op, Addr: uint64(i), ID: uint64(i)}, now)
		}
		bank.Tick(now)
		now++
	}
}

// BenchmarkBufferedBankService measures the BUFF-20 fast path.
func BenchmarkBufferedBankService(b *testing.B) {
	bank := mem.NewBufferedBank(mem.STTRAM, 20, true)
	now := uint64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if bank.QueueLen() < 4 {
			op := mem.OpRead
			if i%3 == 0 {
				op = mem.OpWrite
			}
			bank.Enqueue(&mem.Request{Op: op, Addr: uint64(i % 64), ID: uint64(i)}, now)
		}
		bank.Tick(now)
		now++
	}
}

// BenchmarkGenerator measures per-instruction workload generation cost.
func BenchmarkGenerator(b *testing.B) {
	prof := workload.MustByName("tpcc")
	g := workload.NewGeneratorBanks(prof, 0, workload.ModeShared, 1, prof.MissRatio(), noc.DefaultTopology().NumBanks())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

// BenchmarkSimulatorCycle measures the whole-system cost per simulated cycle
// under the full WB scheme.
func BenchmarkSimulatorCycle(b *testing.B) {
	s, err := sim.New(sim.Config{
		Scheme:     sim.SchemeSTT4TSBWB,
		Assignment: workload.Homogeneous(workload.MustByName("tpcc")),
	})
	must(b, err)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSteadyStateCycle is the zero-allocation gate: it steps the WB
// simulator past its fill transient (pools populated, queues at working
// depth) before the timer starts, so the reported allocs/op is the true
// steady-state figure — the bench guard pins it at 0.
func BenchmarkSteadyStateCycle(b *testing.B) {
	s, err := sim.New(sim.Config{
		Scheme:     sim.SchemeSTT4TSBWB,
		Assignment: workload.Homogeneous(workload.MustByName("tpcc")),
	})
	must(b, err)
	for i := 0; i < 5000; i++ {
		if err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTracing is BenchmarkSimulatorCycle under a given observability
// configuration; the disabled/enabled pair quantifies the tracing overhead
// and feeds scripts/bench_guard.sh, which fails `make verify` when the
// disabled path's allocs/op or B/op grow more than 2% (B/op plus 64 bytes)
// over its checked-in baseline, or its ns/op more than 10% on a quiet host
// that recorded the baseline.
func benchTracing(b *testing.B, oc *sim.ObsConfig) {
	s, err := sim.New(sim.Config{
		Scheme:     sim.SchemeSTT4TSBWB,
		Assignment: workload.Homogeneous(workload.MustByName("tpcc")),
		Obs:        oc,
	})
	must(b, err)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTracingDisabled is the guarded hot path: observability compiled in
// but switched off (the default for every experiment run).
func BenchmarkTracingDisabled(b *testing.B) { benchTracing(b, nil) }

// BenchmarkTracingEnabled measures the full event-tracing cost into a
// discarded binary sink (encode + buffer, no disk).
func BenchmarkTracingEnabled(b *testing.B) {
	benchTracing(b, &sim.ObsConfig{Sink: obs.NewBinarySink(io.Discard)})
}

// BenchmarkMetricsEnabled measures the sampling-registry-only configuration.
func BenchmarkMetricsEnabled(b *testing.B) {
	benchTracing(b, &sim.ObsConfig{MetricsInterval: 1000})
}

// BenchmarkAblations regenerates the design-choice sensitivity sweeps
// (write-latency inflection, WB window, hold cap, interface depth).
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		wl, err := exp.AblationWriteLatency(r)
		must(b, err)
		exp.PrintWriteLatency(io.Discard, wl)
		pts, err := exp.AblationWBWindow(r)
		must(b, err)
		exp.PrintAblation(io.Discard, "wb window", pts)
	}
}

// BenchmarkTraceRecordReplay measures the trace substrate's record+load+
// replay cost for one core's stream.
func BenchmarkTraceRecordReplay(b *testing.B) {
	prof := workload.MustByName("tpcc")
	for i := 0; i < b.N; i++ {
		gen := workload.NewGeneratorBanks(prof, 0, workload.ModeShared, uint64(i+1), prof.MissRatio(), noc.DefaultTopology().NumBanks())
		var buf bytes.Buffer
		must(b, trace.Record(gen, 100000, &buf, trace.Meta{Name: "tpcc"}))
		tr, err := trace.Load(&buf)
		must(b, err)
		p := trace.NewPlayer(tr)
		for j := 0; j < 100000; j++ {
			p.Next()
		}
	}
}
