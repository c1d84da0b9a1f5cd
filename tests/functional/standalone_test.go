package functional

import (
	"context"
	"encoding/json"
	"path/filepath"
	"testing"
	"time"

	"sttsim/pkg/sttsim"
)

// TestStandaloneLifecycle is the end-to-end happy path against a real
// standalone daemon: submit, poll to done, fetch the result, hit the cache on
// resubmission with byte-identical payloads, and observe it all in /v1/stats.
// It subsumes the standalone phase of the retired smoke script.
func TestStandaloneLifecycle(t *testing.T) {
	skipShort(t)
	_, c := startStandalone(t)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	h, err := c.Health(ctx)
	if err != nil {
		t.Fatalf("Health: %v", err)
	}
	if h.Status != "ok" || h.Mode != "standalone" {
		t.Fatalf("health = %+v, want ok/standalone", h)
	}

	// Submit and run to completion.
	st, err := c.Submit(ctx, smokeSpec(11))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st.Terminal() {
		t.Fatalf("fresh submission is already %s", st.State)
	}
	st, err = c.Wait(ctx, st.ID)
	if err != nil || st.State != sttsim.StateDone {
		t.Fatalf("Wait = (%+v, %v), want done", st, err)
	}
	if st.Scheme != "STT-RAM-4TSB" || st.Bench != "milc" {
		t.Errorf("job identity = %s/%s, want STT-RAM-4TSB/milc", st.Scheme, st.Bench)
	}
	first, err := c.Result(ctx, st.ID)
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	var res struct {
		Cycles uint64 `json:"Cycles"`
	}
	if err := json.Unmarshal(first, &res); err != nil || res.Cycles == 0 {
		t.Fatalf("result payload %q: Cycles = %d, err = %v", first[:min(len(first), 80)], res.Cycles, err)
	}

	// Resubmission of the same configuration is a cache hit with the same
	// bytes — the first-writer-wins canonical payload.
	st2, err := c.Submit(ctx, smokeSpec(11))
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if !st2.CacheHit || st2.State != sttsim.StateDone {
		t.Fatalf("resubmit = %+v, want an immediate cache hit", st2)
	}
	again, err := c.Result(ctx, st2.ID)
	if err != nil {
		t.Fatalf("cached Result: %v", err)
	}
	if string(again) != string(first) {
		t.Error("cached result bytes differ from the original payload")
	}

	// Run() is submit+wait+result in one call; a different seed is a
	// different fingerprint, so this executes for real.
	st3, data, err := c.Run(ctx, smokeSpec(12))
	if err != nil || len(data) == 0 {
		t.Fatalf("Run = (%+v, %d bytes, %v), want done with a payload", st3, len(data), err)
	}

	// The daemon's own accounting agrees.
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if stats.Cache.Hits < 1 {
		t.Errorf("cache hits = %d, want >= 1", stats.Cache.Hits)
	}
	if stats.Engine.Executed < 2 {
		t.Errorf("engine executed = %d, want >= 2", stats.Engine.Executed)
	}
	jobs, err := c.Jobs(ctx, 10)
	if err != nil || len(jobs) < 3 {
		t.Errorf("Jobs = (%d entries, %v), want >= 3", len(jobs), err)
	}
}

// TestJournalResumeServesWarmCache restarts a daemon against its checkpoint
// journal and expects the replayed memo to answer a resubmission without
// re-executing — the restart-resume half of the retired smoke-script
// standalone phase, driven black-box.
func TestJournalResumeServesWarmCache(t *testing.T) {
	skipShort(t)
	journal := filepath.Join(t.TempDir(), "checkpoint.jsonl")
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	d1, c1 := startStandalone(t, "-checkpoint", journal)
	st, first, err := c1.Run(ctx, smokeSpec(41))
	if err != nil || st.State != sttsim.StateDone {
		t.Fatalf("Run = (%+v, %v), want done", st, err)
	}
	d1.Stop()

	d2, c2 := startStandalone(t, "-checkpoint", journal, "-resume")
	defer d2.Stop()
	st2, err := c2.Submit(ctx, smokeSpec(41))
	if err != nil {
		t.Fatalf("resubmit after resume: %v", err)
	}
	if !st2.CacheHit || st2.State != sttsim.StateDone {
		t.Fatalf("resubmit after resume = %+v, want an immediate cache hit", st2)
	}
	again, err := c2.Result(ctx, st2.ID)
	if err != nil {
		t.Fatalf("Result after resume: %v", err)
	}
	if string(again) != string(first) {
		t.Error("replayed result bytes differ from the pre-restart payload")
	}
	stats, err := c2.Stats(ctx)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if stats.Engine.Executed != 0 {
		t.Errorf("engine executed %d jobs after resume, want 0 (journal replay should serve it)", stats.Engine.Executed)
	}
}

// TestCancelStopsARunningJob cancels a deliberately long run and expects the
// cooperative cancel to surface as the cancelled terminal state.
func TestCancelStopsARunningJob(t *testing.T) {
	skipShort(t)
	_, c := startStandalone(t)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	long := sttsim.JobSpec{
		Scheme: "stt4", Bench: "milc", Seed: 3,
		WarmupCycles: 1000, MeasureCycles: 50_000_000,
	}
	st, err := c.Submit(ctx, long)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := c.Cancel(ctx, st.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	st, err = c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatalf("Wait after cancel: %v", err)
	}
	if st.State != sttsim.StateCancelled {
		t.Fatalf("state after cancel = %s, want cancelled", st.State)
	}
}
