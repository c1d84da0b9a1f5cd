package sim

import (
	"bytes"
	"testing"

	"sttsim/internal/cpu"
	"sttsim/internal/trace"
	"sttsim/internal/workload"
)

// TestTraceReplayMatchesLive records every core's synthetic stream, replays
// it through the GeneratorFactory hook, and verifies the run is
// observationally identical to the live-generated one — the trace-driven
// operation mode of the paper's simulator.
func TestTraceReplayMatchesLive(t *testing.T) {
	prof := workload.MustByName("sclust")
	cfg := Config{
		Scheme:        SchemeSTT4TSBWB,
		Assignment:    workload.Homogeneous(prof),
		WarmupCycles:  1500,
		MeasureCycles: 4000,
	}
	live, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Record enough instructions per core to cover the run (2-wide x cycles
	// is a safe upper bound).
	n := 2 * (cfg.WarmupCycles + cfg.MeasureCycles + 10)
	miss := MissRatioFor(prof, SchemeSTT4TSBWB.Tech())
	seed := cfg.withDefaults().Seed
	traces := make([]*trace.Trace, 64)
	for i := 0; i < 64; i++ {
		gen := workload.NewGeneratorBanks(prof, i, cfg.Assignment.Mode, seed, miss, cfg.Topology().NumBanks())
		var buf bytes.Buffer
		if err := trace.Record(gen, n, &buf, trace.Meta{Name: prof.Name, Core: i, Seed: seed}); err != nil {
			t.Fatal(err)
		}
		traces[i], err = trace.Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
	}

	replayCfg := cfg
	replayCfg.GeneratorFactory = func(core int, _ workload.Profile, _ float64) cpu.Generator {
		return trace.NewPlayer(traces[core])
	}
	replay, err := Run(replayCfg)
	if err != nil {
		t.Fatal(err)
	}

	if live.InstructionThroughput != replay.InstructionThroughput {
		t.Fatalf("replay IT %f != live IT %f", replay.InstructionThroughput, live.InstructionThroughput)
	}
	for i := range live.Committed {
		if live.Committed[i] != replay.Committed[i] {
			t.Fatalf("core %d: replay committed %d, live %d", i, replay.Committed[i], live.Committed[i])
		}
	}
	if live.Net.FlitsDelivered != replay.Net.FlitsDelivered {
		t.Fatal("replay network traffic differs from live run")
	}
}
