// Command experiments regenerates every table and figure of the paper's
// evaluation section. By default it runs the full 42-benchmark campaign;
// -quick restricts sweeps to a representative subset, and -exp selects
// experiments by a comma-separated list of names.
//
// The campaign is supervised: runs execute on a bounded worker pool (-jobs),
// each with an optional wall-clock budget (-run-timeout), panic recovery and
// a retry policy for watchdog/timeout verdicts. Failed runs render as
// FAILED(<cause>) cells instead of aborting the campaign, and SIGINT/SIGTERM
// drains gracefully. With -checkpoint the campaign journals every finished
// run to a JSONL file; -resume replays the journal so an interrupted
// campaign only executes the remainder.
//
// Usage:
//
//	experiments [-quick] [-exp all|table2,table3,fig3,fig6,fig7,fig8,fig9,fig10,fig12,fig13,fig14,...]
//	            [-warmup N] [-measure N] [-seed N]
//	            [-jobs N] [-run-timeout D] [-checkpoint FILE] [-resume]
//	            [-obs-addr :6060] [-metrics-out FILE [-metrics-interval N]]
//	            [-cpuprofile cpu.out] [-memprofile mem.out]
//
// All experiment tables go to stdout, which is byte-identical for a given
// configuration regardless of -jobs and of checkpoint replay; timing and
// campaign diagnostics go to stderr.
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	_ "net/http/pprof" // -obs-addr debug endpoint

	"sttsim/internal/campaign"
	"sttsim/internal/exp"
	"sttsim/internal/mem"
	"sttsim/internal/noc"
	"sttsim/internal/prof"
	"sttsim/internal/service"
	"sttsim/internal/sim"
	"sttsim/internal/version"
	api "sttsim/pkg/sttsim"
)

func main() {
	which := flag.String("exp", "all", "comma-separated experiments to run (all, table2, table3, fig3, fig6, fig7, fig8, fig9, fig10, fig12, fig13, fig14, ablations, extensions, resilience)")
	quick := flag.Bool("quick", false, "restrict sweeps to a representative benchmark subset")
	warmup := flag.Uint64("warmup", 0, "warmup cycles per run (0 = default)")
	measure := flag.Uint64("measure", 0, "measured cycles per run (0 = default)")
	seed := flag.Uint64("seed", 0, "workload seed (0 = default)")
	tech := flag.String("tech", "", "override the bank technology with a registered profile (registered: "+
		strings.Join(mem.ProfileNames(), ", ")+"; empty = scheme defaults)")
	topo := flag.String("topo", "", "override the network shape as XxYxL, e.g. 8x8x3 (empty = paper's 8x8x2)")
	jobs := flag.Int("jobs", 0, "concurrent simulations (0 = GOMAXPROCS)")
	runTimeout := flag.Duration("run-timeout", 0, "wall-clock budget per simulation attempt (0 = none)")
	checkpoint := flag.String("checkpoint", "", "JSONL checkpoint journal for finished runs (empty = none)")
	resume := flag.Bool("resume", false, "replay finished runs from the checkpoint journal instead of re-executing them")
	obsAddr := flag.String("obs-addr", "", "serve net/http/pprof + expvar (live campaign progress) on this address (empty = off)")
	metricsOut := flag.String("metrics-out", "", "after the campaign, record a representative run's time-series metrics to this file (.jsonl = JSONL, else CSV)")
	metricsInterval := flag.Uint64("metrics-interval", 1000, "sampling period (cycles) for the -metrics-out run")
	showVersion := flag.Bool("version", false, "print the build version and exit")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the whole campaign to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (post-campaign snapshot) to this file")
	flag.Parse()

	if *showVersion {
		fmt.Printf("experiments %s\n", version.String())
		return
	}

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	code := run(*which, *quick, *warmup, *measure, *seed, *tech, *topo, *jobs, *runTimeout, *checkpoint, *resume, *obsAddr, *metricsOut, *metricsInterval)
	if perr := stopProf(); perr != nil {
		fmt.Fprintln(os.Stderr, "experiments: profile:", perr)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// run executes the selected experiments and returns the process exit code
// (0 = every experiment passed, 1 = failures or interruption, 2 = bad
// usage). Factored out of main so deferred cleanup runs before os.Exit.
func run(which string, quick bool, warmup, measure, seed uint64, tech, topo string, jobs int, runTimeout time.Duration, checkpoint string, resume bool, obsAddr, metricsOut string, metricsInterval uint64) int {
	var shape noc.Topology
	if topo != "" {
		t, err := noc.ParseTopology(topo)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			return 2
		}
		shape = t
	}
	if tech != "" {
		if _, ok := mem.LookupProfile(tech); !ok {
			fmt.Fprintf(os.Stderr, "experiments: unknown tech profile %q (registered: %s)\n",
				tech, strings.Join(mem.ProfileNames(), ", "))
			return 2
		}
	}
	// SIGINT/SIGTERM cancels the campaign context: in-flight runs stop at
	// their next poll, finished verdicts stay journaled, and the drivers
	// render what they have with the rest marked FAILED(cancelled).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	eng := campaign.NewWithContext(ctx, campaign.Policy{Jobs: jobs, RunTimeout: runTimeout})
	defer eng.Close()
	if obsAddr != "" {
		// Live observability endpoint: pprof under /debug/pprof/, campaign
		// progress as JSON under /debug/vars. Registration happens once per
		// process, failures are diagnostics, and nothing touches stdout.
		expvar.Publish("campaign", expvar.Func(func() interface{} { return eng.Stats() }))
		go func() {
			if err := http.ListenAndServe(obsAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: obs endpoint: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "experiments: pprof+expvar on http://%s/debug/\n", obsAddr)
	}
	if checkpoint != "" {
		j, recs, err := campaign.OpenJournal(checkpoint, resume)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			return 1
		}
		if dropped := j.Stats().ReplayDropped; dropped > 0 {
			fmt.Fprintf(os.Stderr, "experiments: %s: dropped %d torn/corrupt journal line(s); the affected runs will re-execute\n", checkpoint, dropped)
		}
		if n := eng.Preload(recs); n > 0 {
			fmt.Fprintf(os.Stderr, "experiments: resuming, %d finished runs replayed from %s\n", n, checkpoint)
		}
		eng.AttachJournal(j)
	}

	r := exp.NewRunnerEngine(exp.Options{
		WarmupCycles:  warmup,
		MeasureCycles: measure,
		Seed:          seed,
		Quick:         quick,
		TechProfile:   tech,
		MeshX:         shape.MeshX,
		MeshY:         shape.MeshY,
		Layers:        shape.Layers,
	}, eng)

	type experiment struct {
		name string
		run  func() error
	}
	w := os.Stdout
	experiments := []experiment{
		{"table2", func() error { exp.Table2(w); return nil }},
		{"table3", func() error {
			rows, err := exp.Table3(r)
			if err != nil {
				return err
			}
			exp.PrintTable3(w, rows)
			return nil
		}},
		{"fig3", func() error {
			entries, err := exp.Figure3(r)
			if err != nil {
				return err
			}
			exp.PrintFigure3(w, entries)
			return nil
		}},
		{"fig6", func() error {
			res, err := exp.Figure6(r)
			if err != nil {
				return err
			}
			exp.PrintFigure6(w, res)
			return nil
		}},
		{"fig7", func() error {
			entries, err := exp.Figure7(r)
			if err != nil {
				return err
			}
			exp.PrintFigure7(w, entries)
			return nil
		}},
		{"fig8", func() error {
			entries, err := exp.Figure8(r)
			if err != nil {
				return err
			}
			exp.PrintFigure8(w, entries)
			return nil
		}},
		{"fig9", func() error {
			cases, err := exp.Figure9(r)
			if err != nil {
				return err
			}
			exp.PrintFigure9(w, cases)
			return nil
		}},
		{"fig10", func() error {
			entries, err := exp.Figure10(r)
			if err != nil {
				return err
			}
			exp.PrintFigure10(w, entries)
			return nil
		}},
		{"fig12", func() error {
			points, err := exp.Figure12(r)
			if err != nil {
				return err
			}
			exp.PrintFigure12(w, points)
			return nil
		}},
		{"fig13", func() error {
			res, err := exp.Figure13(r)
			if err != nil {
				return err
			}
			exp.PrintFigure13(w, res)
			return nil
		}},
		{"fig14", func() error {
			entries, err := exp.Figure14(r)
			if err != nil {
				return err
			}
			exp.PrintFigure14(w, entries)
			return nil
		}},
		{"extensions", func() error {
			entries, err := exp.Extensions(r)
			if err != nil {
				return err
			}
			exp.PrintExtensions(w, entries)
			return nil
		}},
		{"resilience", func() error {
			entries, err := exp.Resilience(r, "tpcc")
			if err != nil {
				return err
			}
			exp.PrintResilience(w, entries)
			return nil
		}},
		{"ablations", func() error {
			wl, err := exp.AblationWriteLatency(r)
			if err != nil {
				return err
			}
			exp.PrintWriteLatency(w, wl)
			for _, a := range []struct {
				title string
				run   func(*exp.Runner) ([]exp.AblationPoint, error)
			}{
				{"WB tagging window (Section 3.5: N=100)", exp.AblationWBWindow},
				{"arbiter hard-hold window", exp.AblationHoldCap},
				{"module-interface queue depth", exp.AblationBankQueue},
			} {
				pts, err := a.run(r)
				if err != nil {
					return err
				}
				fmt.Fprintln(w)
				exp.PrintAblation(w, a.title, pts)
			}
			return nil
		}},
	}

	titles := map[string]string{
		"table2":     "Table 2: SRAM vs STT-RAM bank parameters (32nm, 3GHz)",
		"table3":     "Table 3: benchmark characterization, measured vs paper",
		"fig3":       "Figure 3: accesses following a write to the same bank (STT-RAM baseline)",
		"fig6":       "Figure 6: system throughput of the six schemes",
		"fig7":       "Figure 7: packet latency breakdown (network vs bank queuing)",
		"fig8":       "Figure 8: un-core energy normalized to SRAM-64TSB",
		"fig9":       "Figure 9: weighted speedup and instruction throughput (Cases 1-3)",
		"fig10":      "Figure 10: maximum slowdown in Case-2 (fairness)",
		"fig12":      "Figure 12: sensitivity to TSB placement and region count (WB scheme)",
		"fig13":      "Figure 13: sensitivity to parent-child hop distance",
		"fig14":      "Figure 14: comparison with the read-preemptive write buffer (BUFF-20)",
		"ablations":  "Ablations: write-latency inflection, WB window, hold cap, interface depth",
		"extensions": "Extensions: early write termination (Zhou et al.) and hybrid SRAM/STT-RAM banks",
		"resilience": "Resilience: degradation under stochastic write errors and TSB failures (tpcc)",
	}

	selected := map[string]bool{}
	for _, name := range strings.Split(which, ",") {
		name = strings.TrimSpace(name)
		if _, ok := titles[name]; !ok && name != "all" {
			valid := []string{"all"}
			for _, e := range experiments {
				valid = append(valid, e.name)
			}
			fmt.Fprintf(os.Stderr, "unknown experiment %q (want a comma-separated list of: %s)\n",
				name, strings.Join(valid, ", "))
			return 2
		}
		selected[name] = true
	}

	// verdict is one experiment's outcome for the end-of-campaign summary.
	type verdict struct {
		name      string
		err       error  // hard driver error (nil when the tables rendered)
		failed    uint64 // run failures surfaced as FAILED(...) cells
		cancelled uint64 // runs abandoned by an interrupt mid-experiment
		skipped   bool   // campaign interrupted before this experiment started
		secs      float64
	}
	var verdicts []verdict
	for _, e := range experiments {
		if !selected["all"] && !selected[e.name] {
			continue
		}
		if eng.Interrupted() && e.name != "table2" {
			verdicts = append(verdicts, verdict{name: e.name, skipped: true})
			continue
		}
		start := time.Now()
		before := eng.Stats()
		fmt.Fprintf(w, "=== %s ===\n", titles[e.name])
		err := e.run()
		after := eng.Stats()
		v := verdict{
			name:      e.name,
			err:       err,
			failed:    after.Failed - before.Failed,
			cancelled: after.Cancelled - before.Cancelled,
			secs:      time.Since(start).Seconds(),
		}
		verdicts = append(verdicts, v)
		if err != nil {
			// Driver-level failure (bad arguments, journal I/O): report and
			// move on to the remaining experiments.
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", e.name, err)
		}
		// Timing to stderr: stdout stays byte-identical across -jobs levels
		// and checkpoint replays.
		fmt.Fprintf(os.Stderr, "(%s in %.1fs)\n", e.name, v.secs)
		fmt.Fprintln(w)
	}
	eng.Drain()
	st := eng.Stats()
	fmt.Fprintf(os.Stderr, "campaign: %s\n", st)
	exitCode := 0
	if len(verdicts) > 1 || st.Failed > 0 || eng.Interrupted() {
		fmt.Fprintln(os.Stderr, "campaign summary:")
		for _, v := range verdicts {
			status := "PASS"
			detail := fmt.Sprintf("%.1fs", v.secs)
			switch {
			case v.skipped:
				status, detail = "SKIP", "interrupted before start"
			case v.err != nil:
				status, detail = "FAIL", v.err.Error()
			case v.failed > 0:
				status = "FAIL"
				detail = fmt.Sprintf("%d run(s) FAILED, see cells above", v.failed)
			case v.cancelled > 0:
				status = "FAIL"
				detail = fmt.Sprintf("interrupted: %d run(s) cancelled", v.cancelled)
			}
			fmt.Fprintf(os.Stderr, "  %-10s %-4s %s\n", v.name, status, detail)
			if status != "PASS" {
				exitCode = 1
			}
		}
	}
	// Close cancels the engine context, so capture interrupted-ness first —
	// the metrics artifact below must be skipped only on a real SIGINT.
	interrupted := eng.Interrupted()
	if interrupted {
		fmt.Fprintln(os.Stderr, "campaign interrupted; partial results rendered above")
		exitCode = 1
	}
	if err := eng.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: closing checkpoint journal: %v\n", err)
		exitCode = 1
	}
	if metricsOut != "" && !interrupted {
		// Metrics artifact: one representative WB/tpcc run outside the
		// campaign (observed runs are not cacheable, so this never perturbs
		// the journal or the memoized tables above).
		if err := writeMetricsArtifact(metricsOut, metricsInterval, warmup, measure, seed); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: metrics artifact: %v\n", err)
			exitCode = 1
		} else {
			fmt.Fprintf(os.Stderr, "experiments: metrics artifact written to %s\n", metricsOut)
		}
	}
	return exitCode
}

// writeMetricsArtifact samples the recommended scheme on tpcc and exports the
// time series next to the campaign's other outputs.
func writeMetricsArtifact(path string, interval, warmup, measure, seed uint64) error {
	cfg, err := service.SpecConfig(api.JobSpec{
		Scheme: "wb", Bench: "tpcc", Seed: seed, WarmupCycles: warmup, MeasureCycles: measure,
	})
	if err != nil {
		return err
	}
	cfg.Obs = &sim.ObsConfig{MetricsInterval: interval}
	res, err := sim.Run(cfg)
	if err != nil {
		return err
	}
	return res.Metrics.WriteFile(path)
}
