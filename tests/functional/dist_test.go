package functional

import (
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"sttsim/pkg/sttsim"
)

// TestCoordinatorClusterRunsJobs boots a coordinator with two real worker
// processes and pushes distinct configurations through them concurrently.
// Black-box the results must be indistinguishable from standalone execution;
// the dist block of /v1/stats must show both workers carrying the load. It
// subsumes the coordinator phase of the retired smoke script.
func TestCoordinatorClusterRunsJobs(t *testing.T) {
	skipShort(t)
	_, c := startCluster(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	// Ready needs only one live worker; on a loaded host the second may not
	// have sent its first lease poll yet, so give it a moment.
	var h sttsim.Health
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		var err error
		if h, err = c.Health(ctx); err != nil {
			t.Fatalf("Health: %v", err)
		}
		if h.WorkersAlive == 2 || time.Now().After(deadline) {
			break
		}
	}
	if h.Mode != "coordinator" || h.WorkersAlive != 2 {
		t.Fatalf("health = %+v, want coordinator with 2 workers", h)
	}

	// Four distinct fingerprints, submitted concurrently: enough to exercise
	// both workers without relying on any particular lease interleaving.
	seeds := []uint64{21, 22, 23, 24}
	var wg sync.WaitGroup
	errs := make([]error, len(seeds))
	payloads := make([][]byte, len(seeds))
	for i, seed := range seeds {
		wg.Add(1)
		go func(i int, seed uint64) {
			defer wg.Done()
			_, data, err := c.Run(ctx, smokeSpec(seed))
			errs[i], payloads[i] = err, data
		}(i, seed)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("seed %d: %v", seeds[i], err)
		}
		var res struct {
			Cycles uint64 `json:"Cycles"`
		}
		if jerr := json.Unmarshal(payloads[i], &res); jerr != nil || res.Cycles == 0 {
			t.Errorf("seed %d: bad result payload: %v", seeds[i], jerr)
		}
	}

	// A repeated configuration short-circuits in the coordinator's cache —
	// no second trip across the worker protocol.
	st, err := c.Submit(ctx, smokeSpec(21))
	if err != nil || !st.CacheHit {
		t.Errorf("resubmit = (%+v, %v), want a coordinator cache hit", st, err)
	}

	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if stats.Dist == nil {
		t.Fatal("stats.dist missing in coordinator mode")
	}
	if stats.Dist.WorkersAlive != 2 {
		t.Errorf("workers_alive = %d, want 2", stats.Dist.WorkersAlive)
	}
	if stats.Dist.Completed < uint64(len(seeds)) {
		t.Errorf("dist completed = %d, want >= %d", stats.Dist.Completed, len(seeds))
	}
	var roster []sttsim.WorkerStatus = stats.Dist.Workers
	if len(roster) != 2 {
		t.Errorf("worker roster has %d rows, want 2", len(roster))
	}
}
