package service

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"sttsim/internal/campaign"
)

// e2eSpec is small enough for a real run to finish in well under a second
// but exercises the full simulator (64-tile mesh, STT 4-TSB scheme).
const e2eSpec = `{"scheme":"stt4","bench":"milc","seed":11,"warmup_cycles":100,"measure_cycles":300}`

// TestE2EDedupRestartAcceptance is the PR's acceptance test: N concurrent
// identical submissions execute the simulation exactly once and every client
// receives byte-identical results; /v1/stats accounts the other N-1 as
// cache/memo hits; and a restarted daemon that replayed the checkpoint
// journal serves the same configuration, byte for byte, without re-executing
// it.
func TestE2EDedupRestartAcceptance(t *testing.T) {
	journalPath := filepath.Join(t.TempDir(), "journal.jsonl")
	jrn, _, err := campaign.OpenJournal(journalPath, false)
	if err != nil {
		t.Fatal(err)
	}
	eng := campaign.New(campaign.Policy{Jobs: 4, RunTimeout: 2 * time.Minute})
	eng.AttachJournal(jrn)
	srv, err := NewServer(Options{Engine: eng, Version: "e2e"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Phase 1: N concurrent identical submissions.
	const n = 8
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, st := postJob(t, ts, e2eSpec)
			if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
				t.Errorf("submit %d: status %d", i, resp.StatusCode)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for _, id := range ids {
		if st := waitTerminal(t, ts, id); st.State != StateDone {
			t.Fatalf("job %s ended %s (%s), want done", id, st.State, st.Error)
		}
	}

	// Exactly one execution; the other N-1 were cache or memo hits.
	stats := srv.Stats()
	if stats.Engine.Executed != 1 {
		t.Fatalf("executed = %d, want exactly 1", stats.Engine.Executed)
	}
	if got := stats.Cache.Hits + stats.Engine.MemoHits; got != n-1 {
		t.Fatalf("cache+memo hits = %d (cache %d, memo %d), want %d",
			got, stats.Cache.Hits, stats.Engine.MemoHits, n-1)
	}

	// Every client receives byte-identical result payloads.
	var canonical []byte
	for i, id := range ids {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("result %d: status %d", i, resp.StatusCode)
		}
		if canonical == nil {
			canonical = body
		} else if !bytes.Equal(canonical, body) {
			t.Fatalf("client %d received a result differing from client 0", i)
		}
	}
	if len(canonical) == 0 {
		t.Fatal("empty result payload")
	}

	// Shut the first daemon down cleanly; the journal holds the verdict.
	eng.Drain()
	if err := jrn.Close(); err != nil {
		t.Fatal(err)
	}

	// Phase 2: restart. A fresh engine that replayed the journal must serve
	// the same configuration as a cache hit, executing nothing.
	jrn2, recs, err := campaign.OpenJournal(journalPath, true)
	if err != nil {
		t.Fatal(err)
	}
	defer jrn2.Close()
	eng2 := campaign.New(campaign.Policy{Jobs: 4})
	defer func() {
		eng2.Interrupt()
		eng2.Drain()
	}()
	if n := eng2.Preload(recs); n != 1 {
		t.Fatalf("replayed %d results from the journal, want 1", n)
	}
	srv2, err := NewServer(Options{Engine: eng2, Version: "e2e-restarted"})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	resp, st := postJob(t, ts2, e2eSpec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restarted submit status = %d, want 200 (cache hit)", resp.StatusCode)
	}
	if !st.CacheHit || st.State != StateDone {
		t.Fatalf("restarted job = %+v, want immediate cache hit", st)
	}
	if got := srv2.Stats().Engine.Executed; got != 0 {
		t.Fatalf("restarted daemon executed %d runs, want 0", got)
	}
	res2, err := http.Get(ts2.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	body2, _ := io.ReadAll(res2.Body)
	res2.Body.Close()

	// The journal keeps the result as the bytes the first daemon served.
	if !bytes.Equal(canonical, body2) {
		t.Fatalf("restarted daemon served a payload differing from the original run (%d vs %d bytes)",
			len(canonical), len(body2))
	}
}
