// Command sttsimd is the simulation-as-a-service daemon: an HTTP/JSON front
// end over the campaign engine.
//
//	sttsimd -addr :8734 -checkpoint runs.jsonl -resume
//
// Clients POST simulation specs to /v1/jobs, poll /v1/jobs/{id}, stream live
// progress from /v1/jobs/{id}/events (SSE), fetch /v1/jobs/{id}/result, and
// scrape /v1/healthz/live, /v1/healthz/ready and /v1/stats. Identical
// configurations — concurrent or repeated — execute once: in-flight
// submissions join the singleflight memo, finished ones are answered at once
// from it (a cache hit), and with -checkpoint/-resume the memo replays the
// journal so a restarted daemon serves previously completed configurations
// without re-executing them. SIGINT/SIGTERM drain
// gracefully: no new jobs, in-flight runs finish (and journal) within
// -drain-timeout, then the listener closes.
//
// -mode splits the daemon for horizontal scaling:
//
//	sttsimd -mode coordinator -addr :8734 -checkpoint runs.jsonl -resume
//	sttsimd -mode worker -coordinator http://host:8734 -worker-id w1
//
// A coordinator serves the same client API but executes nothing locally:
// jobs enter a lease table and stateless workers pull them over
// /v1/worker/*, heartbeat while running, and stream results back. Leases
// that miss heartbeats are re-delivered; stale workers are fenced by lease
// epoch; leased-but-unfinished jobs are re-queued from the checkpoint
// journal on restart. The default -mode standalone behaves exactly as
// before.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sttsim/internal/campaign"
	"sttsim/internal/dist"
	"sttsim/internal/service"
	"sttsim/internal/version"
)

func main() {
	mode := flag.String("mode", "standalone", "standalone | coordinator | worker")
	addr := flag.String("addr", ":8734", "listen address (standalone and coordinator)")
	jobs := flag.Int("jobs", 0, "concurrent simulations (0 = GOMAXPROCS; coordinator: queue size)")
	queue := flag.Int("queue", 64, "max queued+running jobs before 429 backpressure")
	checkpoint := flag.String("checkpoint", "", "JSONL checkpoint journal for finished runs (empty = none)")
	resume := flag.Bool("resume", false, "replay finished runs from the checkpoint journal into the memo")
	journalSync := flag.String("journal-sync", "interval", "journal fsync policy: always | interval | never")
	journalSyncInterval := flag.Duration("journal-sync-interval", time.Second, "max time between journal fsyncs under -journal-sync=interval")
	journalMaxBytes := flag.Int64("journal-max-bytes", 64<<20, "compact the journal in place once it exceeds this size (0 = never)")
	runTimeout := flag.Duration("run-timeout", 10*time.Minute, "wall-clock budget per simulation attempt (0 = none)")
	rate := flag.Float64("rate", 0, "per-client request rate limit in req/s (0 = unlimited)")
	burst := flag.Int("burst", 10, "per-client rate limit burst")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "grace period for in-flight jobs on shutdown")
	leaseTimeout := flag.Duration("lease-timeout", 15*time.Second, "coordinator: re-deliver a job after this long without a worker heartbeat")
	coordinator := flag.String("coordinator", "", "worker: coordinator base URL (e.g. http://host:8734)")
	workerID := flag.String("worker-id", "", "worker: stable identity in leases and logs (default host-pid)")
	heartbeat := flag.Duration("heartbeat-interval", 2*time.Second, "worker: lease heartbeat period")
	leaseWait := flag.Duration("lease-wait", 5*time.Second, "worker: lease long-poll horizon")
	showVersion := flag.Bool("version", false, "print the build version and exit")
	flag.Parse()

	ver := version.String()
	if *showVersion {
		fmt.Printf("sttsimd %s\n", ver)
		return
	}
	logger := log.New(os.Stderr, "sttsimd: ", log.LstdFlags)

	switch *mode {
	case "worker":
		runWorker(logger, *coordinator, *workerID, *heartbeat, *leaseWait, *drainTimeout)
		return
	case "standalone", "coordinator":
	default:
		logger.Fatalf("unknown -mode %q (want standalone, coordinator, or worker)", *mode)
	}

	var table *dist.Table
	engineJobs := *jobs
	if *mode == "coordinator" {
		table = dist.NewTable(dist.TableOptions{LeaseTimeout: *leaseTimeout, Logf: logger.Printf})
		defer table.Close()
		// Coordinator "runs" only block on the lease table; the engine's
		// local-execution semaphore must not serialize remote workers.
		if engineJobs <= 0 {
			engineJobs = *queue
		}
	}

	eng := campaign.New(campaign.Policy{Jobs: engineJobs, RunTimeout: *runTimeout})

	// The journal opens before the server so its health feeds /ready and
	// /v1/stats from the first request. With -resume, opening is the one
	// read of the file: it returns the intact records and repairs any torn
	// tail in place.
	var jrn *campaign.Journal
	var recs []campaign.Record
	if *checkpoint != "" {
		sync, err := campaign.ParseSyncPolicy(*journalSync)
		if err != nil {
			logger.Fatal(err)
		}
		jrn, recs, err = campaign.OpenJournalWith(*checkpoint, *resume, campaign.JournalOptions{
			Sync:      sync,
			SyncEvery: *journalSyncInterval,
			MaxBytes:  *journalMaxBytes,
			Logf:      logger.Printf,
		})
		if err != nil {
			logger.Fatalf("open checkpoint: %v", err)
		}
		defer jrn.Close()
		if dropped := jrn.Stats().ReplayDropped; dropped > 0 {
			logger.Printf("dropped %d torn/corrupt journal line(s) from %s", dropped, *checkpoint)
		}
		if n := eng.Preload(recs); n > 0 {
			logger.Printf("resumed %d journal record(s), %d finished run(s) replayed", len(recs), n)
		}
		eng.AttachJournal(jrn)
	}

	srv, err := service.NewServer(service.Options{
		Engine:     eng,
		MaxQueue:   *queue,
		RatePerSec: *rate,
		RateBurst:  *burst,
		Version:    ver,
		Dist:       table,
		Journal:    jrn,
		Logf:       logger.Printf,
	})
	if err != nil {
		logger.Fatal(err)
	}
	// After the journal is attached, so re-queued jobs write fresh lease
	// records and eventually terminal ones.
	if table != nil && len(recs) > 0 {
		if n := srv.RequeuePending(recs); n > 0 {
			logger.Printf("re-queued %d leased-but-unfinished job(s) from the journal", n)
		}
	}

	// Bind before announcing, and announce the resolved address: with
	// -addr 127.0.0.1:0 (test harnesses) the log line carries the real port.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatalf("listen %s: %v", *addr, err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	done := make(chan error, 1)
	go func() { done <- httpSrv.Serve(ln) }()
	logger.Printf("version %s %s listening on %s (jobs=%d queue=%d)",
		ver, *mode, ln.Addr(), engineJobs, *queue)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-done:
		logger.Fatalf("listener: %v", err)
	case s := <-sig:
		logger.Printf("%s: draining (%s grace)", s, drainTimeout)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		logger.Printf("drain: %v", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Printf("shutdown: %v", err)
	}
	logger.Printf("stopped")
}

// runWorker is -mode worker: no listener, no engine — just the lease/run/
// complete loop against a coordinator. SIGINT/SIGTERM stop leasing and give
// the job in hand the drain grace to finish.
func runWorker(logger *log.Logger, coordinator, id string, heartbeat, leaseWait, drainGrace time.Duration) {
	if coordinator == "" {
		logger.Fatal("-mode worker requires -coordinator")
	}
	if id == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			host = "worker"
		}
		id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	w := &dist.Worker{
		Coordinator:       coordinator,
		ID:                id,
		HeartbeatInterval: heartbeat,
		LeaseWait:         leaseWait,
		DrainGrace:        drainGrace,
		Logf:              logger.Printf,
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	logger.Printf("version %s worker %s serving %s (heartbeat=%s)", version.String(), id, coordinator, heartbeat)
	if err := w.Loop(ctx); err != nil {
		logger.Fatalf("worker: %v", err)
	}
	logger.Printf("stopped")
}
