package exp

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"sttsim/internal/campaign"
	"sttsim/internal/sim"
)

// campaignRunner builds a runner on an engine with the given worker count at
// test scale. Full-system sweeps are skipped under -short like tinyRunner.
func campaignRunner(t *testing.T, jobs int) *Runner {
	t.Helper()
	if testing.Short() {
		t.Skip("full-system experiment sweep; skipped in -short mode")
	}
	eng := campaign.New(campaign.Policy{Jobs: jobs})
	t.Cleanup(func() { eng.Close() })
	return NewRunnerEngine(Options{Quick: true, WarmupCycles: 800, MeasureCycles: 2000}, eng)
}

// renderCampaign runs Table 3 and Figure 6 — the two drivers whose prefetch
// sets overlap on the STT-64TSB sweep — and returns the rendered output.
func renderCampaign(t *testing.T, r *Runner) []byte {
	t.Helper()
	var buf bytes.Buffer
	rows, err := Table3(r)
	if err != nil {
		t.Fatal(err)
	}
	PrintTable3(&buf, rows)
	res, err := Figure6(r)
	if err != nil {
		t.Fatal(err)
	}
	PrintFigure6(&buf, res)
	return buf.Bytes()
}

// TestParallelMatchesSequential is the campaign determinism gate: a runner on
// an 8-wide worker pool must render byte-identical tables to a sequential
// one. The drivers prefetch their sweeps and then collect in program order,
// so scheduling must never leak into stdout.
func TestParallelMatchesSequential(t *testing.T) {
	seq := renderCampaign(t, campaignRunner(t, 1))
	par := renderCampaign(t, campaignRunner(t, 8))
	if !bytes.Equal(seq, par) {
		t.Fatalf("parallel output differs from sequential:\n-- jobs=1 --\n%s\n-- jobs=8 --\n%s", seq, par)
	}
}

// TestFailureIsolation injects a panic into exactly one benchmark's
// simulation and checks the campaign survives: that row renders a
// FAILED(panic) cell, every other row keeps its measured cells, and the
// driver returns no hard error.
func TestFailureIsolation(t *testing.T) {
	r := campaignRunner(t, 4)
	r.Engine().SetRunFunc(func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
		if cfg.Assignment.Name == "x264" {
			panic("injected fault for campaign isolation test")
		}
		return sim.RunContext(ctx, cfg)
	})
	rows, err := Table3(r)
	if err != nil {
		t.Fatalf("Table3 must absorb per-run failures, got %v", err)
	}
	var failed, ok int
	for _, row := range rows {
		if row.Profile.Name == "x264" {
			if !strings.Contains(row.Failed, "FAILED(panic)") {
				t.Fatalf("x264 row = %+v, want FAILED(panic)", row)
			}
			failed++
			continue
		}
		if row.Failed != "" {
			t.Fatalf("healthy row %s marked failed: %s", row.Profile.Name, row.Failed)
		}
		if row.L2MPKI <= 0 {
			t.Fatalf("healthy row %s lost its measurement", row.Profile.Name)
		}
		ok++
	}
	if failed != 1 || ok == 0 {
		t.Fatalf("failed=%d ok=%d, want exactly one failure among healthy rows", failed, ok)
	}
	var buf bytes.Buffer
	PrintTable3(&buf, rows)
	if !strings.Contains(buf.String(), "FAILED(panic)") {
		t.Fatal("rendered table hides the failure cell")
	}
}

// TestResumeSkipsJournaledRuns is the end-to-end kill-and-resume contract at
// the driver level: a second campaign resuming from the first one's journal
// must render identical tables while executing zero simulations.
func TestResumeSkipsJournaledRuns(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "ckpt.jsonl")

	first := campaignRunner(t, 4)
	j, _, err := campaign.OpenJournal(ckpt, false)
	if err != nil {
		t.Fatal(err)
	}
	first.Engine().AttachJournal(j)
	want := renderCampaign(t, first)
	if err := first.Engine().Close(); err != nil {
		t.Fatal(err)
	}

	recs, _, err := campaign.LoadJournal(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("first campaign journaled nothing")
	}

	second := campaignRunner(t, 4)
	var executed atomic.Uint64
	second.Engine().SetRunFunc(func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
		executed.Add(1)
		return sim.RunContext(ctx, cfg)
	})
	if n := second.Engine().Preload(recs); n != len(recs) {
		t.Fatalf("Preload replayed %d of %d records", n, len(recs))
	}
	got := renderCampaign(t, second)
	if n := executed.Load(); n != 0 {
		t.Fatalf("resumed campaign re-executed %d runs, want 0", n)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("resumed output differs:\n-- fresh --\n%s\n-- resumed --\n%s", want, got)
	}
}
