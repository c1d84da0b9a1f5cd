package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sttsim/internal/cpu"
	"sttsim/internal/noc"
	"sttsim/internal/sim"
	"sttsim/internal/workload"
)

// cfgN builds the nth distinct cacheable configuration.
func cfgN(n int) sim.Config {
	return sim.Config{Scheme: sim.SchemeSTT64TSB, Seed: uint64(1000 + n)}
}

// okResult builds a recognizable fake result for configuration n.
func okResult(n int) *sim.Result {
	return &sim.Result{Cycles: uint64(n), InstructionThroughput: float64(n) / 2}
}

// okJSON is okResult(n) as the canonical bytes a journal record carries.
func okJSON(n int) json.RawMessage {
	data, err := json.Marshal(okResult(n))
	if err != nil {
		panic(err)
	}
	return data
}

// cycles decodes a record's result bytes and returns its Cycles, or -1 when
// the record carries no decodable result.
func cycles(raw json.RawMessage) int {
	var res sim.Result
	if len(raw) == 0 || json.Unmarshal(raw, &res) != nil {
		return -1
	}
	return int(res.Cycles)
}

// countingRun returns a RunFunc that counts executions per fingerprint and
// delegates to fn.
func countingRun(execs *sync.Map, fn RunFunc) RunFunc {
	return func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
		key := cfg.Fingerprint()
		v, _ := execs.LoadOrStore(key, new(atomic.Int64))
		v.(*atomic.Int64).Add(1)
		return fn(ctx, cfg)
	}
}

// TestSingleflightDedup: many goroutines racing on the same configuration
// execute it exactly once and all observe the same result.
func TestSingleflightDedup(t *testing.T) {
	var execs sync.Map
	eng := New(Policy{Jobs: 4})
	eng.SetRunFunc(countingRun(&execs, func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
		time.Sleep(5 * time.Millisecond) // widen the race window
		return okResult(1), nil
	}))
	defer eng.Close()

	const goroutines = 32
	var wg sync.WaitGroup
	results := make([]*sim.Result, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := eng.Run(cfgN(0))
			if err != nil {
				t.Errorf("Run: %v", err)
			}
			results[i] = res
		}(i)
	}
	wg.Wait()

	total := int64(0)
	execs.Range(func(_, v any) bool { total += v.(*atomic.Int64).Load(); return true })
	if total != 1 {
		t.Fatalf("executed %d times, want exactly 1", total)
	}
	for i, res := range results {
		if res != results[0] {
			t.Fatalf("goroutine %d saw a different result pointer", i)
		}
	}
	if s := eng.Stats(); s.Hits != goroutines-1 || s.Completed != 1 {
		t.Fatalf("stats = %+v, want %d hits and 1 completed", s, goroutines-1)
	}
}

// TestPanicQuarantined: a panicking run is recovered into a typed
// *sim.RunError, classified fatal (no retries), and memoized so duplicate
// configs do not re-trigger it — while sibling configs are unaffected.
func TestPanicQuarantined(t *testing.T) {
	var execs sync.Map
	eng := New(Policy{Jobs: 2, Attempts: 3})
	eng.SetRunFunc(countingRun(&execs, func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
		if cfg.Seed == cfgN(0).Seed {
			panic(fmt.Sprintf("bank index out of range for seed %d", cfg.Seed))
		}
		return okResult(int(cfg.Seed)), nil
	}))
	defer eng.Close()

	_, err := eng.Run(cfgN(0))
	var re *sim.RunError
	if !errors.As(err, &re) {
		t.Fatalf("err = %T (%v), want *sim.RunError", err, err)
	}
	if Classify(err) != VerdictFatal {
		t.Fatalf("Classify(panic) = %v, want VerdictFatal", Classify(err))
	}
	if got := Cause(err); got != "panic" {
		t.Fatalf("Cause = %q, want %q", got, "panic")
	}
	// The quarantined failure is memoized: a second ask joins it.
	if _, err2 := eng.Run(cfgN(0)); !errors.As(err2, &re) {
		t.Fatalf("second Run err = %v, want memoized *sim.RunError", err2)
	}
	// Siblings still complete.
	if res, err := eng.Run(cfgN(1)); err != nil || res == nil {
		t.Fatalf("sibling Run = (%v, %v), want success", res, err)
	}
	v, _ := execs.Load(cfgN(0).Fingerprint())
	if n := v.(*atomic.Int64).Load(); n != 1 {
		t.Fatalf("panicking config executed %d times, want 1 (fatal: no retries)", n)
	}
	if s := eng.Stats(); s.Failed != 1 || s.Completed != 1 {
		t.Fatalf("stats = %+v, want 1 failed, 1 completed", s)
	}
}

// TestRetryPolicy: watchdog deadlocks and timeouts retry up to
// Policy.Attempts with backoff; a success on a later attempt wins.
func TestRetryPolicy(t *testing.T) {
	var calls atomic.Int64
	eng := New(Policy{Jobs: 1, Attempts: 3, Backoff: time.Millisecond})
	eng.SetRunFunc(func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
		if calls.Add(1) < 3 {
			return nil, &noc.DeadlockError{Now: 42}
		}
		return okResult(7), nil
	})
	defer eng.Close()

	res, err := eng.Run(cfgN(0))
	if err != nil || res == nil {
		t.Fatalf("Run = (%v, %v), want success on third attempt", res, err)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("executed %d attempts, want 3", n)
	}
	if s := eng.Stats(); s.Retries != 2 || s.Executed != 3 || s.Completed != 1 {
		t.Fatalf("stats = %+v, want 2 retries over 3 executions", s)
	}
}

// TestRetryExhaustion: a persistent deadlock surfaces after Attempts tries.
func TestRetryExhaustion(t *testing.T) {
	var calls atomic.Int64
	eng := New(Policy{Jobs: 1, Attempts: 2, Backoff: time.Millisecond})
	eng.SetRunFunc(func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
		calls.Add(1)
		return nil, &noc.DeadlockError{Now: 9}
	})
	defer eng.Close()

	_, err := eng.Run(cfgN(0))
	var dl *noc.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want *noc.DeadlockError", err)
	}
	if got := Cause(err); got != "deadlock" {
		t.Fatalf("Cause = %q, want deadlock", got)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("executed %d attempts, want Attempts=2", n)
	}
}

// TestRunTimeoutClassifiedRetryable: a hanging run is cut off by the
// per-attempt timeout and classified retryable.
func TestRunTimeoutClassifiedRetryable(t *testing.T) {
	eng := New(Policy{Jobs: 1, RunTimeout: 5 * time.Millisecond, Attempts: 2, Backoff: time.Millisecond})
	eng.SetRunFunc(func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
		<-ctx.Done() // simulate a hung run honouring cancellation
		return nil, ctx.Err()
	})
	defer eng.Close()

	_, err := eng.Run(cfgN(0))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if got := Cause(err); got != "timeout" {
		t.Fatalf("Cause = %q, want timeout", got)
	}
	if s := eng.Stats(); s.Executed != 2 {
		t.Fatalf("stats = %+v, want both attempts consumed", s)
	}
}

// TestUncacheableBypassesMemo: configs with an opaque GeneratorFactory have
// no fingerprint and must execute every time, never touching the memo.
func TestUncacheableBypassesMemo(t *testing.T) {
	var calls atomic.Int64
	eng := New(Policy{Jobs: 1})
	eng.SetRunFunc(func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
		calls.Add(1)
		return okResult(1), nil
	})
	defer eng.Close()

	cfg := cfgN(0)
	cfg.GeneratorFactory = func(int, workload.Profile, float64) cpu.Generator { return nil }
	for i := 0; i < 3; i++ {
		if _, err := eng.Run(cfg); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("uncacheable config executed %d times, want 3", n)
	}
	if s := eng.Stats(); s.Hits != 0 {
		t.Fatalf("stats = %+v, want zero memo hits", s)
	}
}

// TestJournalRoundTrip: records append, load back intact, and tolerate a
// torn final line.
func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	j, _, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Key: "k1", Scheme: "STT-64TSB", Bench: "x264", Status: StatusOK, Result: okJSON(3)},
		{Key: "k2", Status: StatusFailed, Cause: "panic", Error: "boom"},
	}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a kill mid-write: torn trailing line.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"k3","status":"o`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	got, dropped, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || dropped != 1 {
		t.Fatalf("loaded %d records, %d dropped, want 2 and 1 (torn tail dropped)", len(got), dropped)
	}
	if got[0].Key != "k1" || !bytes.Equal(got[0].Result, okJSON(3)) {
		t.Fatalf("record 0 = %+v, want journaled result bytes back", got[0])
	}
	if got[1].Cause != "panic" {
		t.Fatalf("record 1 cause = %q, want panic", got[1].Cause)
	}
	// A missing journal is an empty resume, not an error.
	if recs, _, err := LoadJournal(filepath.Join(t.TempDir(), "absent.jsonl")); err != nil || recs != nil {
		t.Fatalf("LoadJournal(absent) = (%v, %v), want (nil, nil)", recs, err)
	}
	j2, recs, err := OpenJournal(filepath.Join(t.TempDir(), "absent.jsonl"), true)
	if err != nil || recs != nil {
		t.Fatalf("OpenJournal(absent, resume) = (%v, %v), want (nil, nil)", recs, err)
	}
	j2.Close()
}

// TestKillAndResume: a campaign interrupted partway re-executes zero
// completed configurations on resume — the acceptance criterion for
// -checkpoint/-resume.
func TestKillAndResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	configs := make([]sim.Config, 6)
	for i := range configs {
		configs[i] = cfgN(i)
	}

	// Phase 1: run the first half, then "die" (close without the rest).
	var execs1 sync.Map
	eng1 := New(Policy{Jobs: 2})
	eng1.SetRunFunc(countingRun(&execs1, func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
		if cfg.Seed == configs[2].Seed {
			return nil, errors.New("deterministic invariant violation")
		}
		return okResult(int(cfg.Seed)), nil
	}))
	j1, _, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	eng1.AttachJournal(j1)
	for _, cfg := range configs[:3] {
		eng1.Run(cfg)
	}
	if err := eng1.Close(); err != nil {
		t.Fatal(err)
	}

	// Phase 2: resume. Journaled outcomes (2 ok + 1 fatal) must replay with
	// zero re-execution; only the remaining 3 configs run.
	j2, recs, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	var execs2 sync.Map
	eng2 := New(Policy{Jobs: 2})
	eng2.SetRunFunc(countingRun(&execs2, func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
		return okResult(int(cfg.Seed)), nil
	}))
	if n := eng2.Preload(recs); n != 3 {
		t.Fatalf("Preload restored %d runs, want 3", n)
	}
	eng2.AttachJournal(j2)
	for i, cfg := range configs {
		res, err := eng2.Run(cfg)
		if i == 2 {
			var rp *ReplayedError
			if !errors.As(err, &rp) || rp.Token != "error" && rp.Token != "sim-error" {
				t.Fatalf("config 2 err = %v, want replayed quarantine", err)
			}
			continue
		}
		if err != nil || res == nil {
			t.Fatalf("config %d = (%v, %v), want success", i, res, err)
		}
		if res.Cycles != uint64(cfg.Seed) {
			t.Fatalf("config %d result cycles = %d, want %d", i, res.Cycles, cfg.Seed)
		}
	}
	eng2.Close()

	reexecuted := 0
	execs2.Range(func(k, v any) bool {
		for _, cfg := range configs[:3] {
			if k.(string) == cfg.Fingerprint() {
				reexecuted += int(v.(*atomic.Int64).Load())
			}
		}
		return true
	})
	if reexecuted != 0 {
		t.Fatalf("resume re-executed %d journaled configs, want 0", reexecuted)
	}
	if s := eng2.Stats(); s.Executed != 3 || s.Replayed != 3 {
		t.Fatalf("stats = %+v, want 3 executed and 3 replayed", s)
	}
}

// TestPreloadKeepsJournalBytes: a preloaded result is served as the journal
// record's own bytes, decodes to the same struct on the first Run that asks,
// and a result that does not decode is that run's error, not a panic.
func TestPreloadKeepsJournalBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	j, _, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	good, bad := cfgN(0), cfgN(1)
	if err := j.Append(Record{Key: good.Fingerprint(), Status: StatusOK, Result: okJSON(5)}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Key: bad.Fingerprint(), Status: StatusOK, Result: json.RawMessage(`{"Cycles":"x"}`)}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, recs, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	eng := New(Policy{Jobs: 1})
	eng.SetRunFunc(func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
		t.Errorf("preloaded config %d executed", cfg.Seed)
		return nil, errors.New("unexpected run")
	})
	defer eng.Close()
	if n := eng.Preload(recs); n != 2 {
		t.Fatalf("Preload restored %d runs, want 2", n)
	}

	if data := eng.Peek(good.Fingerprint()); !bytes.Equal(data, recs[0].Result) {
		t.Fatalf("Peek = %s, want the journal record's bytes %s", data, recs[0].Result)
	}
	var want sim.Result
	if err := json.Unmarshal(recs[0].Result, &want); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(good)
	if err != nil || !reflect.DeepEqual(res, &want) {
		t.Fatalf("Run = (%+v, %v), want the decoded journal result %+v", res, err, want)
	}
	if again, _ := eng.Run(good); again != res {
		t.Fatal("second Run decoded the journaled result again")
	}

	for i := 0; i < 2; i++ { // the decode error sticks, it is not retried
		if res, err := eng.Run(bad); err == nil || res != nil {
			t.Fatalf("Run on an undecodable result = (%+v, %v), want an error", res, err)
		}
	}
	if s := eng.Stats(); s.Executed != 0 || s.Replayed != 2 {
		t.Fatalf("stats = %+v, want 0 executed and 2 replayed", s)
	}
}

// TestPreloadSkipsRetryableFailures: journaled timeout/deadlock failures are
// environment-dependent, so a resume re-executes them instead of replaying
// the stale verdict.
func TestPreloadSkipsRetryableFailures(t *testing.T) {
	eng := New(Policy{Jobs: 1})
	var calls atomic.Int64
	eng.SetRunFunc(func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
		calls.Add(1)
		return okResult(1), nil
	})
	defer eng.Close()

	key := cfgN(0).Fingerprint()
	n := eng.Preload([]Record{
		{Key: key, Status: StatusFailed, Cause: "timeout", Error: "deadline exceeded"},
	})
	if n != 0 {
		t.Fatalf("Preload restored %d, want 0 (timeouts retry on resume)", n)
	}
	if res, err := eng.Run(cfgN(0)); err != nil || res == nil {
		t.Fatalf("Run = (%v, %v), want fresh successful execution", res, err)
	}
	if calls.Load() != 1 {
		t.Fatal("timed-out config was not re-executed on resume")
	}
}

// TestInterruptDrains: Interrupt cancels in-flight runs promptly, queued
// submissions come back cancelled, and nothing cancelled reaches the
// journal.
func TestInterruptDrains(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	// Buffered: the run func sends without blocking, so an unbuffered send
	// made before the test reaches <-started would be lost.
	started := make(chan struct{}, 1)
	eng := New(Policy{Jobs: 1})
	eng.SetRunFunc(func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-ctx.Done()
		return nil, ctx.Err()
	})
	j, _, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	eng.AttachJournal(j)

	for i := 0; i < 4; i++ {
		eng.Submit(cfgN(i))
	}
	<-started
	eng.Interrupt()
	done := make(chan struct{})
	go func() { eng.Drain(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Drain did not complete after Interrupt")
	}
	for i := 0; i < 4; i++ {
		_, err := eng.Run(cfgN(i))
		if Classify(err) != VerdictCancelled {
			t.Fatalf("config %d verdict = %v (%v), want cancelled", i, Classify(err), err)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("journal holds %d cancelled records, want 0", len(recs))
	}
	if s := eng.Stats(); s.Cancelled == 0 {
		t.Fatalf("stats = %+v, want cancelled runs counted", s)
	}
}

// TestSubmitThenRunJoins: the drivers' prefetch pattern — Submit the sweep up
// front, then collect sequentially via Run — executes each config once.
func TestSubmitThenRunJoins(t *testing.T) {
	var execs sync.Map
	eng := New(Policy{Jobs: 4})
	eng.SetRunFunc(countingRun(&execs, func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
		return okResult(int(cfg.Seed)), nil
	}))
	defer eng.Close()

	for i := 0; i < 8; i++ {
		eng.Submit(cfgN(i))
	}
	for i := 0; i < 8; i++ {
		res, err := eng.Run(cfgN(i))
		if err != nil || res == nil || res.Cycles != uint64(cfgN(i).Seed) {
			t.Fatalf("config %d = (%v, %v), want its own result", i, res, err)
		}
	}
	total := int64(0)
	execs.Range(func(_, v any) bool { total += v.(*atomic.Int64).Load(); return true })
	if total != 8 {
		t.Fatalf("executed %d runs for 8 configs, want 8", total)
	}
}

// TestJournalTornMiddle: a crash mid-append followed by a resumed campaign
// appending more records used to weld the torn fragment onto the next valid
// line and discard everything from the tear onward. The resume-time tail
// repair must truncate the fragment entirely, so post-tear appends start on a
// clean boundary and the reloaded journal has no corrupt line at all.
func TestJournalTornMiddle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	j, _, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Key: "k1", Status: StatusOK, Result: okJSON(1)}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Kill mid-write: a torn fragment with no trailing newline.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"k2","status":"o`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Resume: OpenJournal must repair the tail so the next append starts a
	// fresh line rather than extending the fragment.
	j2, _, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Append(Record{Key: "k3", Status: StatusOK, Result: okJSON(3)}); err != nil {
		t.Fatal(err)
	}
	if err := j2.Append(Record{Key: "k4", Status: StatusFailed, Cause: "panic", Error: "boom"}); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}

	recs, dropped, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 {
		t.Fatalf("dropped = %d, want 0 (tail repair truncates the torn fragment at open)", dropped)
	}
	keys := make([]string, len(recs))
	for i, r := range recs {
		keys[i] = r.Key
	}
	if len(recs) != 3 || keys[0] != "k1" || keys[1] != "k3" || keys[2] != "k4" {
		t.Fatalf("loaded keys %v, want [k1 k3 k4] (records after the tear preserved)", keys)
	}
	if cycles(recs[1].Result) != 3 {
		t.Fatalf("record k3 = %+v, want its journaled result intact", recs[1])
	}
}

// TestSubmitKeyedJoins: keyed submissions singleflight on the explicit key,
// all handles observe the same outcome, and joins are counted as memo hits.
func TestSubmitKeyedJoins(t *testing.T) {
	var execs atomic.Int64
	eng := New(Policy{Jobs: 4})
	eng.SetRunFunc(func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
		execs.Add(1)
		time.Sleep(5 * time.Millisecond)
		return okResult(7), nil
	})
	defer eng.Close()

	const clients = 16
	handles := make([]*Handle, clients)
	for i := range handles {
		handles[i] = eng.SubmitKeyed("job-key", cfgN(0), nil)
	}
	joined := 0
	for i, h := range handles {
		res, err := h.Outcome()
		if err != nil || res == nil || res.Cycles != 7 {
			t.Fatalf("handle %d outcome = (%v, %v), want shared result", i, res, err)
		}
		if h.Joined {
			joined++
		}
	}
	if execs.Load() != 1 {
		t.Fatalf("executed %d times, want exactly 1", execs.Load())
	}
	if joined != clients-1 {
		t.Fatalf("%d handles joined, want %d", joined, clients-1)
	}
	if s := eng.Stats(); s.Hits != clients-1 {
		t.Fatalf("stats = %+v, want %d memo hits", s, clients-1)
	}
	if data := eng.Peek("job-key"); !bytes.Equal(data, okJSON(7)) {
		t.Fatalf("Peek = %s, want the completed result's bytes", data)
	}
	if s := eng.Stats(); s.Hits != clients-1 {
		t.Fatalf("Peek counted a memo hit: stats = %+v", s)
	}
	if data := eng.Peek("absent"); data != nil {
		t.Fatalf("Peek(absent) = %s, want nil", data)
	}
}

// TestSubmitKeyedCancel: cancelling every handle abandons the run; the
// abandoned key is evicted so a fresh submission re-executes. Cancelling only
// one of two handles must NOT abandon the shared run.
func TestSubmitKeyedCancel(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	var execs atomic.Int64
	eng := New(Policy{Jobs: 2})
	eng.SetRunFunc(func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
		if execs.Add(1) == 1 {
			close(started)
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-release:
			}
		}
		return okResult(9), nil
	})
	defer eng.Close()

	h1 := eng.SubmitKeyed("k", cfgN(0), nil)
	h2 := eng.SubmitKeyed("k", cfgN(0), nil)
	<-started

	h1.Cancel()
	select {
	case <-h2.Done():
		t.Fatal("run abandoned while a handle was still interested")
	case <-time.After(20 * time.Millisecond):
	}

	h2.Cancel()
	if _, err := h2.Outcome(); Classify(err) != VerdictCancelled {
		t.Fatalf("outcome after full cancel = %v, want cancelled verdict", err)
	}

	// The abandoned verdict must not be pinned: a later submission executes.
	close(release)
	h3 := eng.SubmitKeyed("k", cfgN(0), nil)
	if h3.Joined {
		t.Fatal("fresh submission joined the abandoned call")
	}
	if res, err := h3.Outcome(); err != nil || res == nil || res.Cycles != 9 {
		t.Fatalf("re-executed outcome = (%v, %v), want success", res, err)
	}
	if execs.Load() != 2 {
		t.Fatalf("executed %d times, want 2 (abandoned + fresh)", execs.Load())
	}
}
