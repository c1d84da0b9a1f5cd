package service

import (
	"net/http"
	"path/filepath"
	"testing"
	"time"

	"sttsim/internal/campaign"
	"sttsim/internal/failpoint"
)

// TestJournalDegradedServesCacheOnly is the ENOSPC acceptance path: the disk
// fills mid-campaign, the journal degrades instead of panicking or leaving a
// partial record, /ready flips to 503, new jobs are rejected, and previously
// completed configurations keep serving from the engine memo.
func TestJournalDegradedServesCacheOnly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	script := failpoint.NewDiskScript(1)
	script.ENOSPCAfterWrites = 1 // first record lands, the second hits the cliff
	jrn, _, err := campaign.OpenJournalWith(path, false, campaign.JournalOptions{
		FS: &failpoint.FaultFS{Inner: failpoint.OSFS{}, Script: script},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer jrn.Close()

	srv, ts := newTestServer(t, func(o *Options) {
		o.Journal = jrn
		o.Engine.AttachJournal(jrn)
	})

	// Job A: completes and journals while the disk still has room.
	resp, stA := postJob(t, ts, baseJob)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job A answered %d, want 202", resp.StatusCode)
	}
	waitTerminal(t, ts, stA.ID)

	// Job B: completes, but its terminal append hits ENOSPC and degrades the
	// journal. The verdict is journaled before the job turns terminal, so by
	// the time the poll below sees "done" the journal is already degraded.
	jobB := `{"scheme":"stt4","bench":"milc","seed":8,"warmup_cycles":100,"measure_cycles":200}`
	resp, stB := postJob(t, ts, jobB)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job B answered %d, want 202", resp.StatusCode)
	}
	if st := waitTerminal(t, ts, stB.ID); st.State != StateDone {
		t.Fatalf("job B ended %q, want done (degradation must not fail the run)", st.State)
	}
	deadline := time.Now().Add(5 * time.Second)
	for jrn.Degraded() == nil {
		if time.Now().After(deadline) {
			t.Fatal("journal never degraded after the injected ENOSPC")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Readiness now fails...
	resp, err = http.Get(ts.URL + "/v1/healthz/ready")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/ready answered %d with a degraded journal, want 503", resp.StatusCode)
	}
	// ...liveness does not (restarting won't grow the disk)...
	resp, err = http.Get(ts.URL + "/v1/healthz/live")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/live answered %d, want 200", resp.StatusCode)
	}

	// ...new configurations are refused...
	jobC := `{"scheme":"stt4","bench":"milc","seed":9,"warmup_cycles":100,"measure_cycles":200}`
	resp, _ = postJob(t, ts, jobC)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("new job answered %d with a degraded journal, want 503", resp.StatusCode)
	}

	// ...but the completed configuration still serves from the cache.
	resp, stA2 := postJob(t, ts, baseJob)
	if resp.StatusCode != http.StatusOK || !stA2.CacheHit {
		t.Fatalf("cached resubmit answered %d (cache_hit=%v), want 200 cache hit", resp.StatusCode, stA2.CacheHit)
	}

	// Degradation is observable, and the stats carry the engine's count of
	// unpersisted verdicts.
	stats := srv.Stats()
	if stats.Journal == nil || stats.Journal.Degraded == "" {
		t.Fatalf("stats.journal = %+v, want degraded reason", stats.Journal)
	}
	if stats.Journal.AppendErrors == 0 {
		t.Fatalf("stats.journal.append_errors = 0, want the failed append counted")
	}
	if stats.Engine.JournalErrors == 0 {
		t.Fatalf("stats.engine.journal_errors = 0, want job B's lost verdict counted")
	}
	if stats.Journal.RecordsWritten != 1 {
		t.Fatalf("records_written = %d, want exactly job A's record", stats.Journal.RecordsWritten)
	}

	// No partial record is visible to replay: exactly job A's line, clean.
	recs, dropped, err := campaign.LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 || len(recs) != 1 || recs[0].Key != stA.Key || recs[0].Status != campaign.StatusOK {
		t.Fatalf("replay = %d record(s), %d dropped (%+v); want exactly job A's ok record", len(recs), dropped, recs)
	}
}
