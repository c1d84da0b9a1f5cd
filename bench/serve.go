package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"sttsim/internal/sim"
	api "sttsim/pkg/sttsim"
)

// clients is the closed loop's size: each client submits, waits and fetches
// the result before its next submission, with no think time.
const clients = 2

// daemon is one running sttsimd process.
type daemon struct {
	cmd    *exec.Cmd
	client *api.Client
	done   chan struct{} // closed once the process's stderr reaches EOF
}

// startDaemon execs sttsimd with only a listen address and a journal (plus
// -resume for a warm restart) and returns once /v1/healthz/ready answers
// 200, with the time that took.
func startDaemon(ctx context.Context, bin, journal string, resume bool) (*daemon, float64, error) {
	args := []string{"-addr", "127.0.0.1:0", "-checkpoint", journal}
	if resume {
		args = append(args, "-resume")
	}
	cmd := exec.Command(bin, args...)
	// The daemon must not outlive the bench, even if the bench is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start sttsimd: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	var logTail []string // read only after done is closed
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if _, rest, ok := strings.Cut(line, " listening on "); ok && len(addr) == 0 {
				addr <- strings.Fields(rest)[0]
			}
			logTail = append(logTail[max(0, len(logTail)-4):], line)
		}
		io.Copy(io.Discard, stderr)
	}()
	fail := func(err error) (*daemon, float64, error) {
		d.stop()
		return nil, 0, fmt.Errorf("sttsimd %s: %w (log: %s)", strings.Join(args, " "), err, strings.Join(logTail, " | "))
	}
	var base string
	select {
	case a := <-addr:
		base = "http://" + a
	case <-d.done:
		return fail(errors.New("exited before listening"))
	case <-time.After(30 * time.Second):
		return fail(errors.New("no listen address after 30s"))
	}
	// No retries: a transient error is a failure the benchmark counts.
	d.client, err = api.New(base, api.WithRetry(1, 0, 0), api.WithPollInterval(5*time.Millisecond))
	if err != nil {
		return fail(err)
	}
	for {
		if _, err := d.client.Ready(ctx); err == nil {
			return d, time.Since(t0).Seconds(), nil
		} else if time.Since(t0) > 30*time.Second {
			return fail(fmt.Errorf("not ready after 30s: %w", err))
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM (SIGKILL after 30s) and waits for it.
func (d *daemon) stop() error {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
	err := d.cmd.Wait()
	// A daemon that is ready serves requests just before it installs its
	// signal handler, so a SIGTERM sent at once can end it by the signal's
	// default action: that is a stop too.
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
			return nil
		}
	}
	return err
}

// rssMB reads the daemon's resident set from /proc.
func (d *daemon) rssMB() float64 {
	data, _ := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1e3
		}
	}
	return 0
}

// Submission kinds of the serving mix.
const (
	kindUnique = iota
	kindDup
	kindInvalid
)

type submission struct {
	spec api.JobSpec
	kind int
}

// roundPlan is one closed-loop round of the serving mix: 18 unique specs
// (six schemes × tpcc, milc, mcf, with job seeds drawn for this round), 20
// duplicates of uniques submitted earlier in the round, and 2 specs naming
// an unknown benchmark, which the daemon must answer with 400. Every round
// has the same composition, so rounds are comparable.
func roundPlan(seed uint64, round int, smoke bool) []submission {
	rng := rand.New(rand.NewSource(int64(seed)*1_000_003 + int64(round)))
	warmup, measure := uint64(500), uint64(2500)
	if smoke {
		warmup, measure = 100, 400
	}
	var uniques []api.JobSpec
	for _, scheme := range api.Schemes {
		for _, bench := range []string{"tpcc", "milc", "mcf"} {
			uniques = append(uniques, api.JobSpec{
				Scheme: scheme, Bench: bench, Seed: rng.Uint64(),
				WarmupCycles: warmup, MeasureCycles: measure,
			})
		}
	}
	rng.Shuffle(len(uniques), func(i, j int) { uniques[i], uniques[j] = uniques[j], uniques[i] })
	// A unique comes first and the rest fall anywhere after it, so every
	// duplicate has an earlier unique to repeat.
	kinds := []int{kindUnique}
	for i := 0; i < 22; i++ {
		kinds = append(kinds, kindDup)
	}
	kinds[1], kinds[2] = kindInvalid, kindInvalid
	rng.Shuffle(len(kinds)-1, func(i, j int) { kinds[i+1], kinds[j+1] = kinds[j+1], kinds[i+1] })
	for range uniques[1:] {
		at := 1 + rng.Intn(len(kinds))
		kinds = append(kinds[:at], append([]int{kindUnique}, kinds[at:]...)...)
	}

	plan := make([]submission, len(kinds))
	next := 0
	for i, k := range kinds {
		switch k {
		case kindUnique:
			plan[i] = submission{uniques[next], k}
			next++
		case kindDup:
			plan[i] = submission{uniques[rng.Intn(next)], k}
		case kindInvalid:
			plan[i] = submission{api.JobSpec{Scheme: "stt4", Bench: fmt.Sprintf("no-such-bench-%d-%d", round, i)}, k}
		}
	}
	return plan
}

// jobSample is one submission's outcome.
type jobSample struct {
	sub      submission
	hit      bool
	e2e      float64 // submit to result bytes, seconds
	elapsed  float64 // the daemon's admit-to-finish seconds
	data     []byte
	err      error
	expected bool // an invalid spec rejected with 400, as planned
}

// executed reports whether the submission ran (or joined a run) in the
// engine rather than being answered from the result cache.
func (s jobSample) executed() bool { return s.err == nil && !s.expected && !s.hit }

// serveJob submits one spec, waits for it, and fetches the result bytes,
// with spans around each client call.
func serveJob(ctx context.Context, c *api.Client, tr *tracer, trace int, sub submission) jobSample {
	s := jobSample{sub: sub}
	root := tr.begin(trace, 0, "job")
	defer tr.end(root)
	t0 := time.Now()
	id := tr.begin(trace, root, "client.Submit")
	st, err := c.Submit(ctx, sub.spec)
	tr.end(id)
	if sub.kind == kindInvalid {
		var apiErr *api.APIError
		if s.expected = errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusBadRequest; !s.expected {
			s.err = fmt.Errorf("invalid spec answered %v, want 400", err)
		}
		return s
	}
	if err != nil {
		s.err = err
		return s
	}
	s.hit = st.CacheHit
	if !st.Terminal() {
		id = tr.begin(trace, root, "client.Wait")
		st, err = c.Wait(ctx, st.ID)
		tr.end(id)
		if err != nil {
			s.err = err
			return s
		}
	}
	if st.State != api.StateDone {
		s.err = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
		return s
	}
	s.elapsed = st.Elapsed
	id = tr.begin(trace, root, "client.Result")
	s.data, s.err = c.Result(ctx, st.ID)
	tr.end(id)
	s.e2e = time.Since(t0).Seconds()
	return s
}

// server is the bench's view of the daemon it drives: the process running
// now, its journal, and the canonical result bytes per spec, which every
// later answer for that spec must equal.
type server struct {
	bin, dir, journal string
	d                 *daemon
	tr                *tracer
	canon             map[string][]byte
	next              int // next trace id
}

// newServer starts a daemon on an empty journal in a new directory under
// o.out.
func newServer(ctx context.Context, o options, tr *tracer) (*server, error) {
	dir, err := os.MkdirTemp(o.out, "daemon-")
	if err != nil {
		return nil, err
	}
	s := &server{bin: o.sttsimd, dir: dir, journal: filepath.Join(dir, "journal.jsonl"), tr: tr, canon: map[string][]byte{}}
	if _, err := s.restart(ctx, false); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return s, nil
}

// restart stops the running daemon, if any, starts another on the same
// journal, and returns its exec-to-ready seconds.
func (s *server) restart(ctx context.Context, resume bool) (float64, error) {
	if s.d != nil {
		err := s.d.stop()
		s.d = nil
		if err != nil {
			return 0, fmt.Errorf("stop sttsimd: %w", err)
		}
	}
	d, t, err := startDaemon(ctx, s.bin, s.journal, resume)
	if err != nil {
		return 0, err
	}
	s.d = d
	return t, nil
}

// close stops the daemon and removes its directory.
func (s *server) close() {
	if s.d != nil {
		s.d.stop()
	}
	os.RemoveAll(s.dir)
}

func specKey(spec api.JobSpec) string {
	b, _ := json.Marshal(spec)
	return string(b)
}

// check records a sample's outcome in the report: every operation counts as
// attempted, and errors or bytes that differ from the spec's first answer
// count as failed.
func (s *server) check(r *report, js jobSample) {
	r.Attempted++
	if js.err != nil {
		r.fail("%s/%s seed %d: %v", js.sub.spec.Scheme, js.sub.spec.Bench, js.sub.spec.Seed, js.err)
		return
	}
	if js.expected {
		return
	}
	key := specKey(js.sub.spec)
	if prev, ok := s.canon[key]; !ok {
		s.canon[key] = js.data
	} else if !bytes.Equal(prev, js.data) {
		r.fail("%s/%s seed %d: result bytes differ between answers", js.sub.spec.Scheme, js.sub.spec.Bench, js.sub.spec.Seed)
	}
}

// round runs one plan through the closed loop and returns its samples in
// plan order and its wall seconds.
func (s *server) round(ctx context.Context, r *report, plan []submission) ([]jobSample, float64) {
	samples := make([]jobSample, len(plan))
	work := make(chan int)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				samples[i] = serveJob(ctx, s.d.client, s.tr, s.next+i, plan[i])
			}
		}()
	}
	for i := range plan {
		work <- i
	}
	close(work)
	wg.Wait()
	wall := time.Since(t0).Seconds()
	s.next += len(plan)
	for _, js := range samples {
		s.check(r, js)
	}
	return samples, wall
}

// addServiceLayers reports the serving layers from traced samples, the
// daemon's /v1/stats and /proc, and the journal file.
func addServiceLayers(ctx context.Context, r *report, s *server, samples []jobSample) error {
	st := statsOf(s.tr.spans)
	r.add("service.submit_s_p50", quantile(st["client.Submit"], 0.5), "s")
	r.add("service.submit_s_p95", quantile(st["client.Submit"], 0.95), "s")
	r.add("service.result_s_p50", quantile(st["client.Result"], 0.5), "s")
	var hit, server, overhead []float64
	expected := 0
	for _, js := range samples {
		switch {
		case js.expected:
			expected++
		case js.err != nil:
		case js.hit:
			hit = append(hit, js.e2e)
		default:
			server = append(server, js.elapsed)
			overhead = append(overhead, js.e2e-js.elapsed)
		}
	}
	r.add("service.hit_job_p50_s", median(hit), "s")
	r.add("service.server_s_p50", median(server), "s")
	r.add("service.client_overhead_s_p50", median(overhead), "s")
	r.add("service.expected_400", float64(expected), "count")
	stats, err := s.d.client.Stats(ctx)
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	r.add("service.cache_hit_ratio", stats.Cache.HitRatio, "ratio")
	r.add("campaign.executed", float64(stats.Engine.Executed), "count")
	r.add("campaign.memo_hits", float64(stats.Engine.MemoHits), "count")
	r.add("service.daemon_rss_mb", s.d.rssMB(), "MB")
	data, err := os.ReadFile(s.journal)
	if err != nil {
		return err
	}
	r.add("campaign.journal_records", float64(bytes.Count(data, []byte{'\n'})), "count")
	r.add("campaign.journal_mb", float64(len(data))/1e6, "MB")
	return nil
}

// serviceProbe serves a simulator workload's own specs through a fresh
// daemon, each once to execute and once more as a cache hit, so its service
// layers are measured on every workload. The served bytes must equal the
// in-process results.
func serviceProbe(o options, r *report, tr *tracer, specs []api.JobSpec, refJSON [][]byte) error {
	ctx := context.Background()
	s, err := newServer(ctx, o, tr)
	if err != nil {
		return err
	}
	defer s.close()
	s.next = 1000 // job trace ids start past the iteration indices
	for i, spec := range specs {
		s.canon[specKey(spec)] = refJSON[i]
	}
	var samples []jobSample
	for pass := 0; pass < 2; pass++ {
		for _, spec := range specs {
			js := serveJob(ctx, s.d.client, tr, s.next, submission{spec, kindUnique})
			s.next++
			s.check(r, js)
			samples = append(samples, js)
		}
	}
	return addServiceLayers(ctx, r, s, samples)
}

// setupRecords is the journal prefix, in records (≈7.6 MB), each set-up
// restart replays: a fixed size, so replay work does not grow with the
// number of rounds a faster daemon fits into the timed loop, and large
// enough that replay, not process start, dominates the restart.
const setupRecords = 180

// restartTime reports setup_s: the median exec-to-ready seconds of daemons
// started with -resume on a copy of the journal's first setupRecords
// records (all of it, when shorter, as in a smoke run).
func restartTime(ctx context.Context, o options, r *report, s *server) error {
	data, err := os.ReadFile(s.journal)
	if err != nil {
		return err
	}
	end, lines := len(data), 0
	for i, b := range data {
		if b == '\n' {
			if lines++; lines == setupRecords {
				end = i + 1
				break
			}
		}
	}
	prefix := filepath.Join(s.dir, "setup.jsonl")
	if err := os.WriteFile(prefix, data[:end], 0o644); err != nil {
		return err
	}
	restarts := 15
	if o.smoke {
		restarts = 2
	}
	var ready []float64
	for i := 0; i < restarts; i++ {
		d, t, err := startDaemon(ctx, s.bin, prefix, true)
		if err != nil {
			return err
		}
		if err := d.stop(); err != nil {
			return fmt.Errorf("stop sttsimd: %w", err)
		}
		ready = append(ready, t)
		r.sampleHost()
	}
	r.add("setup_s", median(ready), "s")
	return nil
}

// runServe measures the serving workload against real sttsimd processes.
func runServe(o options, r *report) error {
	ctx := context.Background()
	s, err := newServer(ctx, o, nil)
	if err != nil {
		return err
	}
	defer s.close()

	// The untimed round warms both processes; its results are the reference
	// for the digest, the modelled layers and the in-process replay.
	plan0 := roundPlan(o.seed, 0, o.smoke)
	samples0, _ := s.round(ctx, r, plan0)
	var blobs [][]byte
	var refs []*sim.Result
	var refSpecs []api.JobSpec
	for _, js := range samples0 {
		if js.sub.kind != kindUnique || js.err != nil {
			continue
		}
		var res sim.Result
		if err := json.Unmarshal(js.data, &res); err != nil {
			return fmt.Errorf("decode result: %w", err)
		}
		blobs = append(blobs, js.data)
		refs = append(refs, &res)
		refSpecs = append(refSpecs, js.sub.spec)
	}
	if len(refs) == 0 {
		return errors.New("the untimed round produced no results")
	}
	r.Digest = digest(blobs)

	var walls []float64
	var exec [][]float64
	var rt runtimeDeltas
	done, round := 0, 1
	var last []submission
	for start := time.Now(); len(walls) == 0 || time.Since(start) < o.duration(); round++ {
		before := readRuntime()
		last = roundPlan(o.seed, round, o.smoke)
		samples, wall := s.round(ctx, r, last)
		rt.observe(before, readRuntime())
		r.sampleHost()
		walls = append(walls, wall)
		var executed []float64
		for _, js := range samples {
			if js.err == nil && !js.expected {
				done++
			}
			if js.executed() {
				executed = append(executed, js.e2e)
			}
		}
		exec = append(exec, executed)
	}
	r.addTimedLoop(walls, exec, done)
	rt.report(r)
	addModel(r, refs)

	if o.trace {
		s.tr = newTracer()
		rounds := 5
		if o.smoke {
			rounds = 1
		}
		var traced []float64
		var samples []jobSample
		for i := 0; i < rounds; i++ {
			got, wall := s.round(ctx, r, roundPlan(o.seed, round+i, o.smoke))
			samples = append(samples, got...)
			traced = append(traced, wall)
		}
		r.add("trace.overhead_frac", (median(traced)-median(walls))/median(walls), "ratio")
		if err := addServiceLayers(ctx, r, s, samples); err != nil {
			return err
		}
	}

	// Set-up: warm restarts, exec to ready, each replaying the same
	// journal prefix. Then a warm restart on the whole journal must answer
	// the last timed round's uniques from its cache with the same bytes.
	if err := s.d.stop(); err != nil {
		return fmt.Errorf("stop sttsimd: %w", err)
	}
	s.d = nil
	if err := restartTime(ctx, o, r, s); err != nil {
		return err
	}
	if _, err := s.restart(ctx, true); err != nil {
		return err
	}
	for _, sub := range last {
		if sub.kind != kindUnique {
			continue
		}
		js := serveJob(ctx, s.d.client, nil, 0, sub)
		if js.err == nil && !js.hit {
			js.err = errors.New("not a cache hit after a warm restart")
		}
		s.check(r, js)
	}

	cfgs, err := configs(refSpecs)
	if err != nil {
		return err
	}
	heap, err := maxHeapMB(cfgs)
	if err != nil {
		return err
	}
	r.add("heap_mb", heap, "MB")
	if s.tr == nil {
		return nil
	}
	// The execute stage's simulator layers, replayed in process on the
	// untimed round's configs.
	if err := steppedIteration(s.tr, 0, cfgs); err != nil {
		return err
	}
	hops := 0.0
	for i, cfg := range cfgs {
		preloadProbe(s.tr, 0, cfg)
		hops += flitHops(refs[i])
	}
	addSimLayers(r, statsOf(s.tr.spans), hops)
	return s.tr.write(o.tracePath())
}
