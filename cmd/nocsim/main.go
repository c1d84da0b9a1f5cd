// Command nocsim runs one simulation of the 64-core / 64-bank 3D CMP and
// prints its performance, latency, traffic, energy and access-gap report.
// The flags fill the same job spec sttsimd serves, so a run here and a
// served job of the same spec are the same simulation. Fault-injection
// campaigns, trace record/replay and observability ride on top.
//
// Usage:
//
//	nocsim -bench tpcc -scheme wb [-regions 8] [-stagger] [-hops 2]
//	       [-tech sttram-rr10] [-topo 8x8x3]
//	       [-warmup 20000] [-measure 60000] [-writebuf 0] [-plus1vc]
//	       [-rate 1e-4] [-kill-tsbs 1] [-kill-cycle 1] [-max-retries 3]
//	       [-audit 10000] [-deadlock]
//	       [-record DIR [-record-n 200000] | -replay DIR]
//	       [-trace out.jsonl [-decompose]] [-metrics-interval 1000 -metrics-out m.csv]
//	       [-cpuprofile cpu.out] [-memprofile mem.out]
//
// Exit codes: 0 success, 1 run or I/O error, 2 bad flags or spec, 3 the run
// failed with a structured *sim.RunError (deadlock, invariant violation),
// whose in-flight packet dump is printed.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"sttsim/internal/cpu"
	"sttsim/internal/fault"
	"sttsim/internal/mem"
	"sttsim/internal/noc"
	"sttsim/internal/obs"
	"sttsim/internal/prof"
	"sttsim/internal/service"
	"sttsim/internal/sim"
	"sttsim/internal/trace"
	"sttsim/internal/version"
	"sttsim/internal/workload"
	api "sttsim/pkg/sttsim"
)

// jsonReport is the machine-readable shape of a run (-json flag).
type jsonReport struct {
	Scheme                string    `json:"scheme"`
	Workload              string    `json:"workload"`
	Cycles                uint64    `json:"cycles"`
	InstructionThroughput float64   `json:"instruction_throughput"`
	MinIPC                float64   `json:"min_ipc"`
	PerCoreIPC            []float64 `json:"per_core_ipc"`
	NetTransitCycles      float64   `json:"net_transit_cycles"`
	BankQueueCycles       float64   `json:"bank_queue_cycles"`
	UncoreRoundTrip       float64   `json:"uncore_round_trip_cycles"`
	PacketsDelivered      uint64    `json:"packets_delivered"`
	FlitsDelivered        uint64    `json:"flits_delivered"`
	LinkFlits             uint64    `json:"link_flits"`
	TSVFlits              uint64    `json:"tsv_flits"`
	TSBFlits              uint64    `json:"tsb_flits"`
	UncoreEnergyJ         float64   `json:"uncore_energy_j"`
	WriteShadowPct        float64   `json:"write_shadow_pct"`
	ArbiterDelayDecisions uint64    `json:"arbiter_delay_decisions,omitempty"`
}

// options is what the command line selects: the job spec, resolved by
// service.SpecConfig exactly as sttsimd resolves a served one, plus the
// settings that are not on the wire.
type options struct {
	spec api.JobSpec

	// Fault campaign.
	rate       float64
	killTSBs   int
	killCycle  uint64
	maxRetries int
	deadlock   bool

	// Trace record and replay.
	record  string
	recordN uint64
	replay  string

	tracePath       string
	traceFormat     string
	decompose       bool
	metricsInterval uint64
	metricsOut      string
	asJSON          bool
	showVersion     bool
	cpuprofile      string
	memprofile      string
}

// deadlockWatchdog is the -deadlock run's watchdog window: short, so the
// induced deadlock is reported within a few thousand cycles.
const deadlockWatchdog = 2000

// parseFlags reads the command line into options. A returned error is a
// usage error; flag syntax errors exit 2 inside the flag package.
func parseFlags(args []string) (*options, error) {
	fset := flag.NewFlagSet("nocsim", flag.ExitOnError)
	o := &options{}
	s := &o.spec
	fset.StringVar(&s.Bench, "bench", "tpcc", "benchmark name from Table 3, or case1/case2")
	fset.StringVar(&s.Scheme, "scheme", "wb", "sram|stt64|stt4|ss|rca|wb, or the paper's name (e.g. STT-RAM-4TSB-WB)")
	fset.StringVar(&s.TechProfile, "tech", "", "bank technology profile (empty = scheme default; registered: "+
		strings.Join(mem.ProfileNames(), ", ")+")")
	topoName := fset.String("topo", "", "mesh topology as XxYxL, e.g. 8x8x3 (empty = paper's 8x8x2)")
	fset.IntVar(&s.Regions, "regions", 0, "cache-layer regions (4, 8, or 16; 0 = default 8)")
	stagger := fset.Bool("stagger", true, "stagger TSB placement (vs corner)")
	fset.IntVar(&s.Hops, "hops", 0, "parent-child re-ordering distance (0 = default 2)")
	fset.Uint64Var(&s.WarmupCycles, "warmup", 0, "warmup cycles (0 = default)")
	fset.Uint64Var(&s.MeasureCycles, "measure", 0, "measured cycles (0 = default)")
	fset.Uint64Var(&s.Seed, "seed", 0, "workload seed (0 = default); fault draws derive from it")
	fset.IntVar(&s.WriteBufferEntries, "writebuf", 0, "per-bank write-buffer entries (20 = BUFF-20)")
	fset.BoolVar(&s.ReadPreemption, "preempt", false, "enable read preemption in the write buffer")
	fset.BoolVar(&s.ExtraReqVC, "plus1vc", false, "grant the request class one extra VC")
	fset.Uint64Var(&s.AuditInterval, "audit", 0, "run the network invariant audit every N cycles (0 = off)")
	fset.Float64Var(&o.rate, "rate", 0, "raw STT-RAM write error rate (per array write)")
	fset.IntVar(&o.killTSBs, "kill-tsbs", 0, "number of region TSBs to kill (regions 0..n-1)")
	fset.Uint64Var(&o.killCycle, "kill-cycle", 1, "cycle the -kill-tsbs and -deadlock failures fire at")
	fset.IntVar(&o.maxRetries, "max-retries", 0, "write retry bound (0 = default 3)")
	fset.BoolVar(&o.deadlock, "deadlock", false, "induce a deadlock (kill a bank's local port) and print the structured failure")
	fset.StringVar(&o.record, "record", "", "write each core's instruction stream to coreNN.trc files in this directory, then exit without simulating")
	fset.Uint64Var(&o.recordN, "record-n", 200000, "instructions per core for -record")
	fset.StringVar(&o.replay, "replay", "", "drive the cores from the streams recorded in this directory (the recording's bench and seed win)")
	fset.BoolVar(&o.asJSON, "json", false, "emit the report as JSON")
	fset.StringVar(&o.tracePath, "trace", "", "record packet-lifecycle events to this file (internal/obs)")
	fset.StringVar(&o.traceFormat, "trace-format", "auto", "trace encoding: auto|jsonl|binary (auto: .jsonl extension means JSONL)")
	fset.BoolVar(&o.decompose, "decompose", false, "after the run, reduce the -trace file into the latency-breakdown table")
	fset.Uint64Var(&o.metricsInterval, "metrics-interval", 0, "sample time-series metrics every K cycles (0 = off; implied 1000 when -metrics-out is set)")
	fset.StringVar(&o.metricsOut, "metrics-out", "", "write sampled metrics to this file (.jsonl extension means JSONL, else CSV)")
	fset.BoolVar(&o.showVersion, "version", false, "print the build version and exit")
	fset.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile of the whole run to this file")
	fset.StringVar(&o.memprofile, "memprofile", "", "write a heap profile (post-run snapshot) to this file")
	fset.Parse(args) // ExitOnError: a bad flag exits 2 here

	s.Corner = !*stagger
	if *topoName != "" {
		t, err := noc.ParseTopology(*topoName)
		if err != nil {
			return nil, err
		}
		s.MeshX, s.MeshY, s.Layers = t.MeshX, t.MeshY, t.Layers
	}
	if o.deadlock {
		s.WatchdogCycles = deadlockWatchdog
	}
	switch o.traceFormat {
	case "auto", "jsonl", "binary":
	default:
		return nil, fmt.Errorf("unknown -trace-format %q (want auto|jsonl|binary)", o.traceFormat)
	}
	if o.decompose && o.tracePath == "" {
		return nil, errors.New("-decompose needs -trace to know where the events went")
	}
	if o.record != "" && o.replay != "" {
		return nil, errors.New("-record and -replay are exclusive")
	}
	if o.metricsOut != "" && o.metricsInterval == 0 {
		o.metricsInterval = 1000
	}
	return o, nil
}

// faultConfig is the campaign the fault flags describe; a campaign with
// nothing enabled runs exactly like no campaign.
func (o *options) faultConfig() *fault.Config {
	fc := &fault.Config{WriteErrorRate: o.rate, MaxWriteRetries: o.maxRetries}
	for k := 0; k < o.killTSBs; k++ {
		fc.TSBFailures = append(fc.TSBFailures, fault.TSBFailure{Cycle: o.killCycle, Region: k})
	}
	if o.deadlock {
		// Kill the ejection port of a mid-mesh cache bank: every demand
		// request to that bank wedges at its router, the cores' windows fill
		// on the never-completing loads, the system quiesces, and the
		// watchdog fires.
		fc.PortFaults = append(fc.PortFaults, fault.PortFault{
			Cycle: o.killCycle, Node: noc.NodeID(noc.LayerSize + 27), Port: noc.PortLocal,
		})
	}
	return fc
}

func main() {
	os.Exit(run())
}

// run executes one simulation and returns the process exit code. Factored
// out of main so the profiler's deferred stop runs before os.Exit.
func run() int {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "nocsim:", err)
		return 2
	}
	if o.showVersion {
		fmt.Printf("nocsim %s\n", version.String())
		return 0
	}

	stopProf, err := prof.Start(o.cpuprofile, o.memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer func() {
		if perr := stopProf(); perr != nil {
			fmt.Fprintln(os.Stderr, "profile:", perr)
		}
	}()

	var traces []*trace.Trace
	if o.replay != "" {
		if traces, err = loadTraces(o.replay); err != nil {
			fmt.Fprintln(os.Stderr, "replay:", err)
			return 1
		}
		o.spec.Bench, o.spec.Seed = traces[0].Meta.Name, traces[0].Meta.Seed
	}
	cfg, err := service.SpecConfig(o.spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nocsim:", err)
		return 2
	}
	cfg.Fault = o.faultConfig()

	if o.record != "" {
		if err := record(cfg, o.recordN, o.record); err != nil {
			fmt.Fprintln(os.Stderr, "record:", err)
			return 1
		}
		return 0
	}
	if traces != nil {
		if cores := cfg.Topology().NumCores(); cores != len(traces) {
			fmt.Fprintf(os.Stderr, "replay: %s holds %d core traces, the %s topology has %d cores\n",
				o.replay, len(traces), cfg.Topology(), cores)
			return 2
		}
		cfg.GeneratorFactory = func(core int, _ workload.Profile, _ float64) cpu.Generator {
			return trace.NewPlayer(traces[core])
		}
	}

	var sink obs.Sink
	if o.tracePath != "" || o.metricsInterval > 0 {
		cfg.Obs = &sim.ObsConfig{MetricsInterval: o.metricsInterval}
		if o.tracePath != "" {
			f, err := os.Create(o.tracePath)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			if o.traceFormat == "binary" || (o.traceFormat == "auto" && !strings.HasSuffix(o.tracePath, ".jsonl")) {
				sink = obs.NewBinarySink(f)
			} else {
				sink = obs.NewJSONLSink(f)
			}
			cfg.Obs.Sink = sink
		}
	}

	res, rerr := sim.Run(cfg)
	if sink != nil {
		// Flush buffered events before reporting (and before -decompose
		// reads the file back).
		if cerr := sink.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "trace:", cerr)
			return 1
		}
	}
	if rerr != nil {
		var re *sim.RunError
		if errors.As(rerr, &re) {
			printRunError(re)
			return 3
		}
		fmt.Fprintln(os.Stderr, rerr)
		return 1
	}
	if o.metricsOut != "" && res.Metrics != nil {
		if werr := res.Metrics.WriteFile(o.metricsOut); werr != nil {
			fmt.Fprintln(os.Stderr, "metrics:", werr)
			return 1
		}
	}

	if o.asJSON {
		rep := jsonReport{
			Scheme:                res.Config.Scheme.String(),
			Workload:              res.Config.Assignment.Name,
			Cycles:                res.Cycles,
			InstructionThroughput: res.InstructionThroughput,
			MinIPC:                res.MinIPC,
			PerCoreIPC:            res.IPC,
			NetTransitCycles:      res.NetTransit,
			BankQueueCycles:       res.BankQueue,
			UncoreRoundTrip:       res.UncoreLatency(),
			PacketsDelivered:      res.Net.PacketsDelivered,
			FlitsDelivered:        res.Net.FlitsDelivered,
			LinkFlits:             res.Net.LinkFlits,
			TSVFlits:              res.Net.TSVFlits,
			TSBFlits:              res.Net.TSBFlits,
			UncoreEnergyJ:         res.Energy.UncoreJ(),
			WriteShadowPct:        res.GapHist.Percent(0) + res.GapHist.Percent(1),
		}
		if res.Arbiter != nil {
			rep.ArbiterDelayDecisions = res.Arbiter.DelayDecisions
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	}

	fmt.Printf("scheme            %s\n", res.Config.Scheme)
	fmt.Printf("workload          %s\n", res.Config.Assignment.Name)
	if traces != nil {
		fmt.Printf("replayed traces   %s (%d cores x %d instructions, seed %#x)\n",
			o.replay, len(traces), traces[0].Len(), traces[0].Meta.Seed)
	}
	fmt.Printf("measured cycles   %d\n", res.Cycles)
	fmt.Printf("instr throughput  %.3f (sum of per-core IPC)\n", res.InstructionThroughput)
	fmt.Printf("slowest core IPC  %.4f\n", res.MinIPC)
	fmt.Printf("net transit       %.1f cycles/packet\n", res.NetTransit)
	fmt.Printf("bank queue        %.1f cycles/access\n", res.BankQueue)
	fmt.Printf("uncore round trip %.1f cycles\n", res.UncoreLatency())
	fmt.Printf("packets delivered %d (%d flits)\n", res.Net.PacketsDelivered, res.Net.FlitsDelivered)
	fmt.Printf("link/TSV/TSB flits %d / %d / %d\n", res.Net.LinkFlits, res.Net.TSVFlits, res.Net.TSBFlits)
	fmt.Printf("uncore energy     %.6f J (cache %.6f + leak %.6f, net %.6f + leak %.6f)\n",
		res.Energy.UncoreJ(), res.Energy.CacheDynamicJ, res.Energy.CacheLeakageJ,
		res.Energy.NetworkDynamicJ, res.Energy.NetworkLeakageJ)
	fmt.Printf("write shadow      %.1f%% of bank accesses within 33 cycles of a write\n",
		res.GapHist.Percent(0)+res.GapHist.Percent(1))
	if res.Arbiter != nil {
		fmt.Printf("arbiter           %d delay decisions, %d reads + %d writes via parents\n",
			res.Arbiter.DelayDecisions, res.Arbiter.ForwardedReads, res.Arbiter.ForwardedWrites)
	}
	// The digest line sttsimd stores with a finished job.
	fmt.Println(res.Summary())
	if res.Fault != nil {
		fmt.Printf("degradation: %s\n", res.Fault)
	}
	fmt.Println("\naccess-after-write gap distribution")
	fmt.Print(res.GapHist.String())
	fmt.Printf("buffered 2-hop requests per occupied router: %.2f\n", res.HopReqs[2])
	if o.decompose {
		if derr := runDecompose(o.tracePath); derr != nil {
			fmt.Fprintln(os.Stderr, "decompose:", derr)
			return 1
		}
	}
	return 0
}

// printRunError renders the structured failure: headline, audit verdict, and
// the in-flight packet dump (first 20 packets).
func printRunError(re *sim.RunError) {
	fmt.Printf("RUN FAILED: %s/%s at cycle %d\n", re.Scheme, re.Benchmark, re.Cycle)
	fmt.Printf("  cause: %v\n", re.Err)
	if re.Invariant != nil {
		fmt.Printf("  invariant audit: %v\n", re.Invariant)
	}
	fmt.Printf("  %d packets in flight:\n", len(re.Packets))
	const max = 20
	for i, p := range re.Packets {
		if i == max {
			fmt.Printf("    ... and %d more\n", len(re.Packets)-max)
			break
		}
		fmt.Printf("    %s\n", p.String())
	}
}

func tracePath(dir string, core int) string {
	return filepath.Join(dir, fmt.Sprintf("core%02d.trc", core))
}

// record writes n instructions of each core's stream — the stream the
// configured run generates — to one trace file per core in dir.
func record(cfg sim.Config, n uint64, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = sim.DefaultSeed
	}
	topo := cfg.Topology()
	a := cfg.Assignment
	var total int64
	for core := 0; core < topo.NumCores(); core++ {
		p := a.Profiles[core%len(a.Profiles)]
		gen := workload.NewGeneratorBanks(p, core, a.Mode, seed, sim.MissRatioFor(p, cfg.BankTech()), topo.NumBanks())
		f, err := os.Create(tracePath(dir, core))
		if err != nil {
			return err
		}
		if err := trace.Record(gen, n, f, trace.Meta{Name: a.Name, Core: core, Seed: seed}); err != nil {
			f.Close()
			return err
		}
		if st, err := f.Stat(); err == nil {
			total += st.Size()
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	fmt.Printf("recorded %d instructions x %d cores of %s into %s (%.1f MB)\n",
		n, topo.NumCores(), a.Name, dir, float64(total)/1e6)
	return nil
}

// loadTraces reads core00.trc, core01.trc, ... from dir up to the first
// missing file.
func loadTraces(dir string) ([]*trace.Trace, error) {
	var traces []*trace.Trace
	for core := 0; ; core++ {
		f, err := os.Open(tracePath(dir, core))
		if errors.Is(err, fs.ErrNotExist) && core > 0 {
			return traces, nil
		}
		if err != nil {
			return nil, err
		}
		t, err := trace.Load(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("core %d: %w", core, err)
		}
		traces = append(traces, t)
	}
}

// runDecompose reduces a recorded trace into the paper-style latency
// breakdown (Figure 7's queueing-vs-service story, reconstructed per packet).
func runDecompose(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	events, err := obs.ReadTrace(f)
	if err != nil {
		return err
	}
	d, err := obs.Decompose(events)
	if err != nil {
		return err
	}
	fmt.Printf("\nlatency decomposition (%d trace events)\n", len(events))
	obs.PrintSummary(os.Stdout, d)
	return nil
}
