package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"sttsim/internal/campaign"
	"sttsim/internal/dist"
	"sttsim/internal/obs"
	"sttsim/internal/sim"
)

// newCoordinator wires a coordinator-mode server over a fresh lease table.
// No local execution: jobs complete only when a worker (or the test itself,
// driving the protocol by hand) delivers results.
func newCoordinator(t *testing.T, mutate func(*Options), topts dist.TableOptions) (*Server, *httptest.Server, *dist.Table) {
	t.Helper()
	if topts.LeaseTimeout == 0 {
		topts.LeaseTimeout = 10 * time.Second
	}
	table := dist.NewTable(topts)
	eng := campaign.New(campaign.Policy{Jobs: 16})
	opts := Options{Engine: eng, Version: "coord-test", Dist: table}
	if mutate != nil {
		mutate(&opts)
	}
	srv, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		eng.Interrupt()
		eng.Drain()
		table.Close()
	})
	return srv, ts, table
}

// startWorker runs an in-process dist.Worker against url until test cleanup.
// run == nil means the real simulator.
func startWorker(t *testing.T, url, id string, run campaign.RunFunc) {
	t.Helper()
	w := &dist.Worker{
		Coordinator:       url,
		ID:                id,
		Run:               run,
		Client:            &http.Client{Timeout: 5 * time.Second},
		HeartbeatInterval: 20 * time.Millisecond,
		LeaseWait:         200 * time.Millisecond,
		DrainGrace:        50 * time.Millisecond,
		Backoff:           dist.NewBackoff(5*time.Millisecond, 100*time.Millisecond, 1),
		Logf:              t.Logf,
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Loop(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Error("worker loop never exited")
		}
	})
}

func fetchResult(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result status %d: %s", resp.StatusCode, body)
	}
	return body
}

// TestCoordinatorResultMatchesStandalone is the tentpole acceptance: the
// same spec, executed by real simulator runs on remote workers, serves
// byte-identical results to what the single-process daemon produces —
// including journal/cache round trips on both sides.
func TestCoordinatorResultMatchesStandalone(t *testing.T) {
	// Standalone reference, real run.
	engS := campaign.New(campaign.Policy{Jobs: 2})
	srvS, err := NewServer(Options{Engine: engS, Version: "standalone"})
	if err != nil {
		t.Fatal(err)
	}
	tsS := httptest.NewServer(srvS.Handler())
	defer func() {
		tsS.Close()
		engS.Interrupt()
		engS.Drain()
	}()
	_, stS := postJob(t, tsS, e2eSpec)
	if fin := waitTerminal(t, tsS, stS.ID); fin.State != StateDone {
		t.Fatalf("standalone job ended %s (%s)", fin.State, fin.Error)
	}
	want := fetchResult(t, tsS, stS.ID)

	// Coordinator with two real-simulator workers.
	_, ts, _ := newCoordinator(t, nil, dist.TableOptions{})
	startWorker(t, ts.URL, "w1", nil)
	startWorker(t, ts.URL, "w2", nil)

	resp, st := postJob(t, ts, e2eSpec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	if fin := waitTerminal(t, ts, st.ID); fin.State != StateDone {
		t.Fatalf("distributed job ended %s (%s)", fin.State, fin.Error)
	}
	got := fetchResult(t, ts, st.ID)
	if !bytes.Equal(want, got) {
		t.Fatalf("distributed result differs from standalone (%d vs %d bytes)", len(want), len(got))
	}

	// Resubmission is a cache hit — no second distribution round.
	resp2, st2 := postJob(t, ts, e2eSpec)
	if resp2.StatusCode != http.StatusOK || !st2.CacheHit {
		t.Fatalf("resubmit = (%d, cacheHit=%v), want cached 200", resp2.StatusCode, st2.CacheHit)
	}
}

// TestCoordinatorStreamRelaysWorkerProgress: a streamed job's SSE feed must
// carry progress snapshots that originated in worker heartbeats.
func TestCoordinatorStreamRelaysWorkerProgress(t *testing.T) {
	_, ts, _ := newCoordinator(t, nil, dist.TableOptions{})
	run := func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
		if cfg.Obs == nil || cfg.Obs.Sink == nil {
			return nil, fmt.Errorf("streamed task reached the worker without a progress sink")
		}
		for c := uint64(1); c <= 8; c++ {
			cfg.Obs.Sink.Emit(obs.Event{Cycle: c * 10, Type: obs.EvInject})
			time.Sleep(15 * time.Millisecond) // span several heartbeats
		}
		return fakeResult(cfg), nil
	}
	startWorker(t, ts.URL, "w1", run)

	spec := strings.Replace(baseJob, "}", `,"stream":true}`, 1)
	_, st := postJob(t, ts, spec)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := make(chan sseEvent, 64)
	go readSSE(resp.Body, events)

	var sawProgress bool
	timeout := time.After(15 * time.Second)
	for done := false; !done; {
		select {
		case ev, ok := <-events:
			if !ok {
				done = true
				break
			}
			switch ev.Type {
			case "progress":
				var p dist.Progress
				if err := json.Unmarshal([]byte(ev.Data), &p); err != nil {
					t.Fatalf("undecodable progress event %q: %v", ev.Data, err)
				}
				if p.Injected > 0 && p.Cycle > 0 {
					sawProgress = true
				}
			case "done":
				done = true
			}
		case <-timeout:
			t.Fatal("SSE stream never finished")
		}
	}
	if !sawProgress {
		t.Fatal("no worker-relayed progress event reached the SSE feed")
	}
	if fin := waitTerminal(t, ts, st.ID); fin.State != StateDone {
		t.Fatalf("streamed job ended %s (%s)", fin.State, fin.Error)
	}
}

// TestZombieFencingNeverDoubleJournals drives the worker protocol by hand:
// worker w1 leases the job and goes silent; the lease expires and w2
// re-leases it; then the zombie w1 comes back with a corrupted-marker
// completion. The coordinator must answer 410, keep w2's bytes canonical,
// and journal exactly one terminal record (epochs 1 and 2 both write-ahead
// leased records).
func TestZombieFencingNeverDoubleJournals(t *testing.T) {
	var mu sync.Mutex
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	journalPath := filepath.Join(t.TempDir(), "journal.jsonl")
	jrn, _, err := campaign.OpenJournal(journalPath, false)
	if err != nil {
		t.Fatal(err)
	}
	var eng *campaign.Engine
	srv, ts, table := newCoordinator(t, func(o *Options) {
		eng = o.Engine
	}, dist.TableOptions{LeaseTimeout: 10 * time.Second, SweepInterval: time.Hour, Now: clock})
	eng.AttachJournal(jrn)

	post := func(path string, payload any) (int, []byte) {
		data, _ := json.Marshal(payload)
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}
	leaseAs := func(worker string) dist.Task {
		code, body := post(dist.PathLease, dist.LeaseRequest{WorkerID: worker})
		if code != http.StatusOK {
			t.Fatalf("lease as %s: status %d (%s)", worker, code, body)
		}
		var task dist.Task
		if err := json.Unmarshal(body, &task); err != nil {
			t.Fatal(err)
		}
		return task
	}

	_, st := postJob(t, ts, e2eSpec)

	// w1 takes the job... and is never heard from again.
	deadline := time.Now().Add(5 * time.Second)
	for table.Snapshot().Queued == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	task1 := leaseAs("w1")
	if task1.Epoch != 1 {
		t.Fatalf("first lease epoch = %d, want 1", task1.Epoch)
	}
	advance(11 * time.Second)
	table.Sweep()
	task2 := leaseAs("w2")
	if task2.Epoch != 2 || task2.Key != task1.Key {
		t.Fatalf("re-lease = (%s, %d), want (%s, 2)", task2.Key, task2.Epoch, task1.Key)
	}

	// The zombie heartbeats: fenced with 410.
	if code, _ := post(dist.PathHeartbeat, dist.HeartbeatRequest{WorkerID: "w1", Key: task1.Key, Epoch: 1}); code != http.StatusGone {
		t.Fatalf("zombie heartbeat status = %d, want 410", code)
	}
	// The zombie completes with a corrupted marker result: 410, discarded.
	var cfg sim.Config
	if err := json.Unmarshal(task1.Config, &cfg); err != nil {
		t.Fatal(err)
	}
	marker, _ := json.Marshal(&sim.Result{Config: cfg, Cycles: 666666, InstructionThroughput: -1})
	code, _ := post(dist.PathComplete, dist.CompleteRequest{
		WorkerID: "w1", Key: task1.Key, Epoch: 1, Status: dist.CompleteOK, Result: marker,
	})
	if code != http.StatusGone {
		t.Fatalf("zombie completion status = %d, want 410", code)
	}

	// w2 delivers the genuine result.
	genuine, _ := json.Marshal(&sim.Result{Config: cfg, Cycles: 400, InstructionThroughput: 2.0})
	if code, body := post(dist.PathComplete, dist.CompleteRequest{
		WorkerID: "w2", Key: task2.Key, Epoch: 2, Status: dist.CompleteOK, Result: genuine,
	}); code != http.StatusOK {
		t.Fatalf("live completion status = %d (%s)", code, body)
	}
	if fin := waitTerminal(t, ts, st.ID); fin.State != StateDone {
		t.Fatalf("job ended %s (%s)", fin.State, fin.Error)
	}
	var served sim.Result
	if err := json.Unmarshal(fetchResult(t, ts, st.ID), &served); err != nil {
		t.Fatal(err)
	}
	if served.Cycles != 400 {
		t.Fatalf("served Cycles = %d — the zombie's marker leaked through", served.Cycles)
	}
	if fenced := table.Snapshot().Fenced; fenced != 1 {
		t.Fatalf("fenced = %d, want 1", fenced)
	}

	// Journal: two write-ahead lease records (epochs 1 and 2), exactly one
	// terminal record, and its payload is w2's.
	eng.Drain()
	if err := jrn.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, err := campaign.LoadJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	var leaseEpochs []uint64
	var terminals []campaign.Record
	for _, rec := range recs {
		switch rec.Status {
		case campaign.StatusLeased:
			leaseEpochs = append(leaseEpochs, rec.Epoch)
		case campaign.StatusOK, campaign.StatusFailed:
			terminals = append(terminals, rec)
		}
	}
	if len(leaseEpochs) != 2 || leaseEpochs[0] != 1 || leaseEpochs[1] != 2 {
		t.Fatalf("lease record epochs = %v, want [1 2]", leaseEpochs)
	}
	if len(terminals) != 1 {
		t.Fatalf("terminal records = %d, want exactly 1", len(terminals))
	}
	var journaled sim.Result
	if terminals[0].Status != campaign.StatusOK || json.Unmarshal(terminals[0].Result, &journaled) != nil || journaled.Cycles != 400 {
		t.Fatalf("terminal record = %+v, want w2's ok result", terminals[0])
	}
	if pend := campaign.PendingLeases(recs); len(pend) != 0 {
		t.Fatalf("pending leases after terminal record = %d, want 0", len(pend))
	}
	_ = srv
}

// TestCancelPropagatesToWorker: DELETE on a leased job must revoke the lease
// and interrupt the run on the worker, not just flip the client-side state.
func TestCancelPropagatesToWorker(t *testing.T) {
	runStarted := make(chan struct{})
	runCancelled := make(chan struct{})
	_, ts, table := newCoordinator(t, nil, dist.TableOptions{})
	startWorker(t, ts.URL, "w1", func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
		close(runStarted)
		<-ctx.Done()
		close(runCancelled)
		return nil, ctx.Err()
	})

	_, st := postJob(t, ts, baseJob)
	select {
	case <-runStarted:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never started the run")
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if fin := waitTerminal(t, ts, st.ID); fin.State != StateCancelled {
		t.Fatalf("job ended %s, want cancelled", fin.State)
	}
	select {
	case <-runCancelled:
	case <-time.After(10 * time.Second):
		t.Fatal("worker run context was never cancelled after DELETE")
	}
	// The revoked job must not be re-queued behind the client's back.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st := table.Snapshot()
		if st.Queued == 0 && st.Leased == 0 && st.Redelivered == 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := table.Snapshot(); st.Queued != 0 || st.Redelivered != 0 {
		t.Fatalf("cancelled job re-queued: %+v", st)
	}
}

// TestCoordinatorRequeuePendingFromJournal: leased-but-unfinished journal
// records must re-enter the queue on restart and complete on a worker with
// no client attached, landing in the engine memo.
func TestCoordinatorRequeuePendingFromJournal(t *testing.T) {
	var spec JobSpec
	if err := json.Unmarshal([]byte(e2eSpec), &spec); err != nil {
		t.Fatal(err)
	}
	cfg, err := SpecConfig(spec)
	if err != nil {
		t.Fatal(err)
	}
	key := cfg.Fingerprint()
	recs := []campaign.Record{{
		Key: key, Status: campaign.StatusLeased, Worker: "w-dead", Epoch: 3, Config: &cfg,
	}}

	srv, ts, _ := newCoordinator(t, nil, dist.TableOptions{})
	if n := srv.RequeuePending(recs); n != 1 {
		t.Fatalf("RequeuePending = %d, want 1", n)
	}
	startWorker(t, ts.URL, "w1", func(ctx context.Context, c sim.Config) (*sim.Result, error) {
		return fakeResult(c), nil
	})
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if srv.eng.Peek(key) != nil {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("re-queued job never completed into the memo")
}

// TestReadiness: liveness always answers 200; readiness answers 503 for a
// coordinator with no live workers and for any draining daemon.
func TestReadiness(t *testing.T) {
	get := func(ts *httptest.Server, path string) (int, Health) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h Health
		json.NewDecoder(resp.Body).Decode(&h)
		return resp.StatusCode, h
	}

	// Coordinator: not ready until a worker checks in.
	_, ts, _ := newCoordinator(t, nil, dist.TableOptions{})
	if code, h := get(ts, "/v1/healthz/ready"); code != http.StatusServiceUnavailable || h.Mode != "coordinator" {
		t.Fatalf("workerless readiness = (%d, %+v), want 503/coordinator", code, h)
	}
	if code, _ := get(ts, "/v1/healthz/live"); code != http.StatusOK {
		t.Fatalf("workerless liveness = %d, want 200", code)
	}
	startWorker(t, ts.URL, "w1", func(ctx context.Context, c sim.Config) (*sim.Result, error) {
		return fakeResult(c), nil
	})
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, h := get(ts, "/v1/healthz/ready")
		if code == http.StatusOK {
			if h.WorkersAlive < 1 {
				t.Fatalf("ready but workers_alive = %d", h.WorkersAlive)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("coordinator never became ready after worker check-in")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Standalone: ready until draining; live throughout.
	srvS, tsS := newTestServer(t, nil)
	if code, h := get(tsS, "/v1/healthz/ready"); code != http.StatusOK || h.Mode != "standalone" {
		t.Fatalf("standalone readiness = (%d, %+v), want 200/standalone", code, h)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srvS.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if code, h := get(tsS, "/v1/healthz/ready"); code != http.StatusServiceUnavailable || h.Status != "draining" {
		t.Fatalf("draining readiness = (%d, %+v), want 503/draining", code, h)
	}
	if code, _ := get(tsS, "/v1/healthz/live"); code != http.StatusOK {
		t.Fatalf("draining liveness = %d, want 200", code)
	}
}

// TestWorkerConfigMismatchIsTerminal: a worker that detects a fingerprint
// mismatch must fail the job as non-retryable config-mismatch, and the
// coordinator must surface that cause to the client.
func TestWorkerConfigMismatchIsTerminal(t *testing.T) {
	_, ts, table := newCoordinator(t, nil, dist.TableOptions{})
	_ = table
	// No real worker: drive the protocol to answer a failure with the
	// worker's cause token and check it lands in the job status.
	_, st := postJob(t, ts, baseJob)
	post := func(path string, payload any) (int, []byte) {
		data, _ := json.Marshal(payload)
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}
	deadline := time.Now().Add(5 * time.Second)
	var task dist.Task
	for time.Now().Before(deadline) {
		code, body := post(dist.PathLease, dist.LeaseRequest{WorkerID: "w1", WaitS: 0.05})
		if code == http.StatusOK {
			if err := json.Unmarshal(body, &task); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	if task.Key == "" {
		t.Fatal("never leased the submitted job")
	}
	if code, body := post(dist.PathComplete, dist.CompleteRequest{
		WorkerID: "w1", Key: task.Key, Epoch: task.Epoch, Status: dist.CompleteFailed,
		Cause: "config-mismatch", Error: "config fingerprint does not match lease key",
	}); code != http.StatusOK {
		t.Fatalf("failure completion status = %d (%s)", code, body)
	}
	fin := waitTerminal(t, ts, st.ID)
	if fin.State != StateFailed || fin.Cause != "config-mismatch" {
		t.Fatalf("job = (%s, cause %q), want failed/config-mismatch", fin.State, fin.Cause)
	}
}
