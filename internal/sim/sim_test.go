package sim

import (
	"runtime"
	"testing"

	"sttsim/internal/core"
	"sttsim/internal/mem"
	"sttsim/internal/workload"
)

// quickCfg is a short but non-trivial run.
func quickCfg(s Scheme, bench string) Config {
	return Config{
		Scheme:        s,
		Assignment:    workload.Homogeneous(workload.MustByName(bench)),
		WarmupCycles:  2000,
		MeasureCycles: 6000,
	}
}

func TestSchemeProperties(t *testing.T) {
	if SchemeSRAM64TSB.Tech() != mem.SRAM {
		t.Fatal("SRAM scheme tech wrong")
	}
	for _, s := range AllSchemes()[1:] {
		if s.Tech() != mem.STTRAM {
			t.Fatalf("%s tech wrong", s)
		}
	}
	if SchemeSTT64TSB.Restricted() || !SchemeSTT4TSB.Restricted() {
		t.Fatal("Restricted() wrong")
	}
	if SchemeSTT4TSB.Prioritized() || !SchemeSTT4TSBWB.Prioritized() {
		t.Fatal("Prioritized() wrong")
	}
	if len(AllSchemes()) != int(NumSchemes) {
		t.Fatal("AllSchemes incomplete")
	}
	for _, s := range AllSchemes() {
		if s.String() == "" {
			t.Fatal("scheme name empty")
		}
	}
}

func TestMissRatioFor(t *testing.T) {
	prof := workload.MustByName("tpcc")
	stt := MissRatioFor(prof, mem.STTRAM)
	sram := MissRatioFor(prof, mem.SRAM)
	if stt != prof.MissRatio() {
		t.Fatal("STT miss ratio should equal the Table 3 value")
	}
	if sram <= stt || sram > 1 {
		t.Fatalf("SRAM miss ratio %f should exceed STT %f (capacity penalty)", sram, stt)
	}
	// A 100%-miss profile gains nothing from capacity.
	lib := workload.MustByName("libqntm")
	if MissRatioFor(lib, mem.SRAM) != 1 {
		t.Fatal("fully-streaming profile should stay at 100% misses")
	}
}

func TestRunProducesActivity(t *testing.T) {
	r, err := Run(quickCfg(SchemeSTT4TSBWB, "tpcc"))
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles != 6000 {
		t.Fatalf("measured cycles = %d, want 6000", r.Cycles)
	}
	if r.InstructionThroughput <= 0 {
		t.Fatal("no instructions committed")
	}
	if len(r.IPC) != 64 || len(r.BankStats) != 64 || len(r.Cache) != 64 {
		t.Fatal("per-component stats incomplete")
	}
	if r.Net.PacketsDelivered == 0 {
		t.Fatal("no network traffic")
	}
	var reads, writes uint64
	for _, b := range r.BankStats {
		reads += b.Reads
		writes += b.Writes
	}
	if reads == 0 || writes == 0 {
		t.Fatal("banks saw no traffic")
	}
	if r.Energy.UncoreJ() <= 0 {
		t.Fatal("no energy accounted")
	}
	if r.Arbiter == nil {
		t.Fatal("prioritized scheme should report arbiter stats")
	}
	if r.GapHist.Total() == 0 {
		t.Fatal("gap histogram empty")
	}
	if r.Summary() == "" {
		t.Fatal("summary empty")
	}
}

func TestRunIsDeterministic(t *testing.T) {
	a, err := Run(quickCfg(SchemeSTT4TSBRCA, "sclust"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(quickCfg(SchemeSTT4TSBRCA, "sclust"))
	if err != nil {
		t.Fatal(err)
	}
	if a.InstructionThroughput != b.InstructionThroughput {
		t.Fatalf("IT differs across identical runs: %f vs %f",
			a.InstructionThroughput, b.InstructionThroughput)
	}
	for i := range a.Committed {
		if a.Committed[i] != b.Committed[i] {
			t.Fatalf("core %d committed %d vs %d", i, a.Committed[i], b.Committed[i])
		}
	}
	if a.Net.FlitsDelivered != b.Net.FlitsDelivered {
		t.Fatal("network traffic differs across identical runs")
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	cfg := quickCfg(SchemeSTT64TSB, "lbm")
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 999
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Net.PacketsDelivered == b.Net.PacketsDelivered {
		t.Fatal("different seeds should perturb traffic")
	}
}

func TestAllSchemesRunAllModes(t *testing.T) {
	for _, s := range AllSchemes() {
		for _, bench := range []string{"tpcc", "mcf"} {
			r, err := Run(quickCfg(s, bench))
			if err != nil {
				t.Fatalf("%s/%s: %v", s, bench, err)
			}
			if r.InstructionThroughput <= 0 {
				t.Fatalf("%s/%s: no progress", s, bench)
			}
		}
	}
}

func TestSTTRAMHelpsReadIntensiveHurtsWriteIntensive(t *testing.T) {
	// The central tradeoff of Section 4.2 at short scale: hmmer (read
	// intensive, capacity sensitive) gains from STT-RAM; tpcc (bursty
	// write-intensive) does not gain.
	run := func(s Scheme, b string) float64 {
		cfg := quickCfg(s, b)
		cfg.MeasureCycles = 10000
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r.InstructionThroughput
	}
	if run(SchemeSTT64TSB, "hmmer") <= run(SchemeSRAM64TSB, "hmmer") {
		t.Error("read-intensive hmmer should gain from the 4x capacity")
	}
	if run(SchemeSTT64TSB, "tpcc")/run(SchemeSRAM64TSB, "tpcc") > 1.02 {
		t.Error("write-intensive tpcc should not meaningfully gain from STT-RAM alone")
	}
}

func TestWriteBufferConfigReachesBanks(t *testing.T) {
	cfg := quickCfg(SchemeSTT64TSB, "lbm")
	cfg.WriteBufferEntries = 20
	cfg.ReadPreemption = true
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var drains uint64
	for _, b := range r.BankStats {
		drains += b.DrainedWrites
	}
	if drains == 0 {
		t.Fatal("write buffers never drained: BUFF-20 not wired")
	}
}

func TestBufferedBankReducesBankQueue(t *testing.T) {
	plain, err := Run(quickCfg(SchemeSTT64TSB, "lbm"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickCfg(SchemeSTT64TSB, "lbm")
	cfg.WriteBufferEntries = 20
	cfg.ReadPreemption = true
	buffered, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if buffered.BankQueue >= plain.BankQueue {
		t.Fatalf("BUFF-20 should cut bank queueing: %f vs %f",
			buffered.BankQueue, plain.BankQueue)
	}
}

func TestRegionGeometryConfig(t *testing.T) {
	for _, regions := range []int{4, 8, 16} {
		cfg := quickCfg(SchemeSTT4TSBWB, "sclust")
		cfg.Regions = regions
		cfg.Placement = core.PlacementStagger
		cfg.PlacementSet = true
		if _, err := Run(cfg); err != nil {
			t.Fatalf("regions=%d: %v", regions, err)
		}
	}
	cfg := quickCfg(SchemeSTT4TSBWB, "sclust")
	cfg.Regions = 5
	if _, err := Run(cfg); err == nil {
		t.Fatal("expected error for unsupported region count")
	}
}

func TestHopsConfig(t *testing.T) {
	for h := 1; h <= 3; h++ {
		cfg := quickCfg(SchemeSTT4TSBWB, "tpcc")
		cfg.Hops = h
		r, err := Run(cfg)
		if err != nil {
			t.Fatalf("hops=%d: %v", h, err)
		}
		if r.Arbiter.ForwardedReads+r.Arbiter.ForwardedWrites == 0 {
			t.Fatalf("hops=%d: parents never forwarded", h)
		}
	}
}

func TestExtraVCConfig(t *testing.T) {
	cfg := quickCfg(SchemeSTT4TSBWB, "tpcc")
	cfg.ExtraReqVC = true
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestWBWindowAffectsTagging(t *testing.T) {
	run := func(window int) *Result {
		cfg := quickCfg(SchemeSTT4TSBWB, "tpcc")
		cfg.WBWindow = window
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	// Smaller window -> more tags -> estimator actually exercised. We can't
	// read the estimator directly from Result, but coherence-class traffic
	// (TSAcks) must rise.
	small := run(5)
	large := run(5000)
	if small.Net.Latency[2].Count() <= large.Net.Latency[2].Count() {
		t.Fatal("smaller WB window should generate more timestamp acks")
	}
}

func TestMixedAssignmentRuns(t *testing.T) {
	r, err := Run(Config{
		Scheme:        SchemeSTT4TSBWB,
		Assignment:    workload.Case2(),
		WarmupCycles:  2000,
		MeasureCycles: 6000,
	})
	if err != nil {
		t.Fatal(err)
	}
	// All four applications must make progress.
	for i, ipc := range r.IPC {
		if ipc < 0 {
			t.Fatalf("core %d negative IPC", i)
		}
	}
	if r.MinIPC <= 0 {
		t.Fatal("some core starved completely in Case-2")
	}
}

func TestUncoreLatencySane(t *testing.T) {
	r, err := Run(quickCfg(SchemeSTT64TSB, "hmmer"))
	if err != nil {
		t.Fatal(err)
	}
	l := r.UncoreLatency()
	if l < 10 || l > 2000 {
		t.Fatalf("uncore latency %f out of plausible range", l)
	}
}

func TestHybridBanksMixTechnologies(t *testing.T) {
	cfg := quickCfg(SchemeSTT64TSB, "lbm")
	cfg.HybridSRAMBanks = 16
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// With SRAM's 3-cycle writes, the hybrid banks accumulate far fewer
	// busy cycles per write than the STT-RAM banks.
	var hybridBusy, sttBusy, hybridWrites, sttWrites uint64
	for i, b := range r.BankStats {
		if i < 16 {
			hybridBusy += b.BusyCycles
			hybridWrites += b.Writes
		} else {
			sttBusy += b.BusyCycles
			sttWrites += b.Writes
		}
	}
	if hybridWrites == 0 || sttWrites == 0 {
		t.Fatal("both partitions should see writes")
	}
	hb := float64(hybridBusy) / float64(hybridWrites)
	sb := float64(sttBusy) / float64(sttWrites)
	if hb >= sb {
		t.Fatalf("SRAM partition busy/write (%.1f) should be far below STT partition (%.1f)", hb, sb)
	}
}

func TestEarlyWriteTerminationImprovesWriteHeavy(t *testing.T) {
	plain, err := Run(quickCfg(SchemeSTT64TSB, "tpcc"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickCfg(SchemeSTT64TSB, "tpcc")
	cfg.EarlyWriteTermination = true
	ewt, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var saved uint64
	for _, b := range ewt.BankStats {
		saved += b.EarlyTermSaved
	}
	if saved == 0 {
		t.Fatal("early termination never saved a cycle")
	}
	if ewt.BankQueue >= plain.BankQueue {
		t.Fatalf("EWT should reduce bank queueing: %.2f vs %.2f", ewt.BankQueue, plain.BankQueue)
	}
}

// TestCloseIdempotent: Close is optional, and closing twice is safe.
func TestCloseIdempotent(t *testing.T) {
	s, err := New(Config{
		Scheme:     SchemeSTT64TSB,
		Assignment: workload.Homogeneous(workload.Profiles[0]),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	s.Close()
}

// TestCloseRecyclesSetStorage: a simulator built after another one closed
// takes the closed one's set storage instead of allocating its own.
func TestCloseRecyclesSetStorage(t *testing.T) {
	cfg := Config{
		Scheme:     SchemeSTT4TSBWB,
		Assignment: workload.Homogeneous(workload.MustByName("tpcc")),
	}
	if _, err := New(cfg); err != nil { // store the tag images, not closed
		t.Fatal(err)
	}
	// Two collections empty the free lists: the first moves their contents
	// to the victim cache, the second drops them.
	runtime.GC()
	runtime.GC()
	allocated := func() uint64 {
		t.Helper()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		s.Close()
		return ms.TotalAlloc - before
	}
	first := allocated()
	if second := allocated(); second >= first/2 {
		t.Fatalf("a New after a Close allocated %.2f MB, the one before it %.2f MB; want under half",
			float64(second)/(1<<20), float64(first)/(1<<20))
	}
}
