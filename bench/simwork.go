package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"sttsim/internal/cache"
	"sttsim/internal/mem"
	"sttsim/internal/noc"
	"sttsim/internal/service"
	"sttsim/internal/sim"
	"sttsim/internal/workload"
	api "sttsim/pkg/sttsim"
)

// simSpecs lists a simulator workload's runs, in point order, as job specs:
// the daemon's spec path turns them into the same sim.Config the bench runs
// in process, so served and in-process results can be compared byte for byte.
func simSpecs(name string, seed uint64, smoke bool) []api.JobSpec {
	run := func(scheme, bench string, warmup, measure uint64) api.JobSpec {
		if smoke {
			warmup, measure = 100, 400
		}
		return api.JobSpec{Scheme: scheme, Bench: bench, Seed: seed, WarmupCycles: warmup, MeasureCycles: measure}
	}
	switch name {
	case "run-wb-tpcc":
		return []api.JobSpec{run("wb", "tpcc", 2000, 20000)}
	case "run-stt64-mcf":
		return []api.JobSpec{run("stt64", "mcf", 2000, 20000)}
	case "sweep-short":
		var specs []api.JobSpec
		for _, scheme := range api.Schemes {
			for _, bench := range []string{"tpcc", "milc"} {
				specs = append(specs, run(scheme, bench, 500, 1500))
			}
		}
		return specs
	}
	return nil
}

func configs(specs []api.JobSpec) ([]sim.Config, error) {
	cfgs := make([]sim.Config, len(specs))
	for i, spec := range specs {
		cfg, err := service.SpecConfig(spec)
		if err != nil {
			return nil, fmt.Errorf("spec %d: %w", i, err)
		}
		cfgs[i] = cfg
	}
	return cfgs, nil
}

// runSimWorkload measures a simulator workload: its configs run back to back
// with sim.Run on this goroutine, one iteration being one pass over them.
func runSimWorkload(o options, r *report) error {
	specs := simSpecs(o.workload, o.seed, o.smoke)
	cfgs, err := configs(specs)
	if err != nil {
		return err
	}

	// The untimed iteration fixes the reference bytes every later run must
	// reproduce.
	ref, _, err := simIteration(cfgs, r)
	if err != nil {
		return err
	}
	refJSON := make([][]byte, len(ref))
	for i, res := range ref {
		refJSON[i], _ = json.Marshal(res)
	}
	r.Digest = digest(refJSON)

	setup, err := constructionTime(cfgs, o.smoke, r)
	if err != nil {
		return err
	}
	r.add("setup_s", setup, "s")
	heap, err := maxHeapMB(cfgs)
	if err != nil {
		return err
	}
	r.add("heap_mb", heap, "MB")

	var walls []float64
	var jobs [][]float64
	var rt runtimeDeltas
	for start := time.Now(); len(walls) == 0 || time.Since(start) < o.duration(); {
		before := readRuntime()
		t0 := time.Now()
		results, times, err := simIteration(cfgs, r)
		walls = append(walls, time.Since(t0).Seconds())
		rt.observe(before, readRuntime())
		r.sampleHost()
		if err != nil {
			return err
		}
		jobs = append(jobs, times)
		for i, res := range results {
			if data, _ := json.Marshal(res); !bytes.Equal(data, refJSON[i]) {
				r.fail("point %d: result differs from the untimed iteration's", i)
			}
		}
	}
	r.addTimedLoop(walls, jobs, len(walls)*len(cfgs))
	rt.report(r)
	addModel(r, ref)

	if !o.trace {
		return nil
	}
	tr := newTracer()
	iters := 3
	if o.smoke {
		iters = 1
	}
	var traced []float64
	for it := 0; it < iters; it++ {
		t0 := time.Now()
		if err := steppedIteration(tr, it, cfgs); err != nil {
			return err
		}
		traced = append(traced, time.Since(t0).Seconds())
		for _, cfg := range cfgs {
			preloadProbe(tr, it, cfg)
		}
	}
	hops := 0.0
	for _, res := range ref {
		hops += flitHops(res)
	}
	addSimLayers(r, statsOf(tr.spans), hops*float64(iters))
	r.add("trace.overhead_frac", (median(traced)-median(walls))/median(walls), "ratio")
	if err := serviceProbe(o, r, tr, specs, refJSON); err != nil {
		return err
	}
	return tr.write(o.tracePath())
}

// simIteration runs every config once and returns the results with each
// run's seconds. A run that fails counts as a failed operation.
func simIteration(cfgs []sim.Config, r *report) ([]*sim.Result, []float64, error) {
	results := make([]*sim.Result, len(cfgs))
	times := make([]float64, len(cfgs))
	for i, cfg := range cfgs {
		r.Attempted++
		t0 := time.Now()
		res, err := sim.Run(cfg)
		times[i] = time.Since(t0).Seconds()
		if err != nil {
			r.fail("point %d: %v", i, err)
			return nil, nil, fmt.Errorf("point %d: %w", i, err)
		}
		results[i] = res
	}
	return results, times, nil
}

// constructionTime is the median over five batches of the mean sim.New time
// in a batch, cycling through the configs. A construction allocates ≈80 MB,
// so whether a GC cycle lands inside one call is bimodal; the batch mean
// absorbs that and the median drops a batch a noisy neighbour disturbed.
func constructionTime(cfgs []sim.Config, smoke bool, r *report) (float64, error) {
	batches, per := 5, 12
	if smoke {
		batches, per = 2, 2
	}
	var means []float64
	for b := 0; b < batches; b++ {
		t0 := time.Now()
		for i := 0; i < per; i++ {
			s, err := sim.New(cfgs[(b*per+i)%len(cfgs)])
			if err != nil {
				return 0, err
			}
			s.Close()
		}
		means = append(means, time.Since(t0).Seconds()/float64(per))
		r.sampleHost()
	}
	return median(means), nil
}

// steppedIteration is one traced iteration: sim.Run cannot be split from
// outside, so each config is sim.New followed by one sim.Step per cycle,
// grouped into the warmup and measure windows.
func steppedIteration(tr *tracer, trace int, cfgs []sim.Config) error {
	root := tr.begin(trace, 0, "iteration")
	defer tr.end(root)
	for _, cfg := range cfgs {
		if err := steppedRun(tr, trace, root, cfg); err != nil {
			return err
		}
	}
	return nil
}

func steppedRun(tr *tracer, trace, parent int, cfg sim.Config) error {
	id := tr.begin(trace, parent, "sim.New")
	s, err := sim.New(cfg)
	tr.end(id)
	if err != nil {
		return err
	}
	defer s.Close()
	for _, w := range []struct {
		name   string
		cycles uint64
	}{{"window.warmup", cfg.WarmupCycles}, {"window.measure", cfg.MeasureCycles}} {
		wid := tr.begin(trace, parent, w.name)
		for c := uint64(0); c < w.cycles; c++ {
			sid := tr.begin(trace, wid, "sim.Step")
			err := s.Step()
			tr.end(sid)
			if err != nil {
				return fmt.Errorf("cycle %d: %w", c, err)
			}
		}
		tr.end(wid)
	}
	return nil
}

// preloadProbe repeats sim.New's tag prewarm through the workload, cache and
// mem layers' public calls, so its two parts can be timed apart: gathering
// every core's hot footprint by home bank, then building each bank and
// installing its lines.
func preloadProbe(tr *tracer, trace int, cfg sim.Config) {
	root := tr.begin(trace, 0, "probe")
	defer tr.end(root)
	topo := noc.DefaultTopology()
	am := cache.DefaultAddrMap()
	tech := cfg.BankTech()

	id := tr.begin(trace, root, "probe.footprint")
	batches := make([][]uint64, topo.NumBanks())
	sharedDone := false
	for i := 0; i < topo.NumCores(); i++ {
		prof := cfg.Assignment.Profiles[i%len(cfg.Assignment.Profiles)]
		g := workload.NewGeneratorBanks(prof, i, cfg.Assignment.Mode, cfg.Seed, sim.MissRatioFor(prof, tech), topo.NumBanks())
		lines := g.PrivateFootprint()
		if sh := g.SharedFootprint(); len(sh) > 0 && !sharedDone {
			lines = append(lines, sh...)
			sharedDone = true
		}
		for _, line := range lines {
			b := am.HomeBank(cache.AddrOfLine(line))
			batches[b] = append(batches[b], line)
		}
	}
	tr.end(id)

	id = tr.begin(trace, root, "probe.preload")
	for b, lines := range batches {
		bc := cache.NewBankControllerMapped(topo.BankNode(b), mem.NewBank(tech), am)
		pid := tr.begin(trace, id, "cache.PreloadBatch")
		bc.PreloadBatch(lines)
		tr.end(pid)
	}
	tr.end(id)
}

// addSimLayers reports the simulator's per-layer host times from a traced
// pass; flitHops is the number of measure-window flit traversals its
// stepped runs simulated.
func addSimLayers(r *report, st spanStats, flitHops float64) {
	measure := st["window.measure/sim.Step"]
	newS := median(st["sim.New"])
	footprint := median(st["probe.footprint"])
	bankNew := median(st["probe.preload"])
	preload := median(chunkSums(st["cache.PreloadBatch"], noc.DefaultTopology().NumBanks()))
	r.timing("sim.new_s_p50", st["sim.New"], 0.5, "s")
	r.add("sim.step_us_p50", quantile(measure, 0.5)*1e6, "us")
	r.add("sim.step_us_p99", quantile(measure, 0.99)*1e6, "us")
	r.add("sim.warmup_step_us_p50", median(st["window.warmup/sim.Step"])*1e6, "us")
	r.add("sim.cycles_per_s", float64(len(measure))/sum(measure), "cycles/s")
	r.add("sim.step_ns_per_flit_hop", sum(measure)*1e9/flitHops, "ns")
	r.add("workload.footprint_s", footprint, "s")
	r.add("cache.bank_new_s", bankNew, "s")
	r.add("cache.preload_s", preload, "s")
	r.add("sim.construct_other_s", newS-footprint-bankNew-preload, "s")
}

// chunkSums sums consecutive runs of n samples: one probe's per-bank spans.
func chunkSums(xs []float64, n int) []float64 {
	var out []float64
	for i := 0; i+n <= len(xs); i += n {
		out = append(out, sum(xs[i:i+n]))
	}
	return out
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
