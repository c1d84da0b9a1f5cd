// Package sttsim is the versioned, typed client SDK for the sttsimd
// simulation-as-a-service daemon: the wire types of the /v1 HTTP API
// (shared with the server, so they cannot drift), client-side
// SetDefaults/Validate for job specs, and an HTTP client with submit, poll,
// result, cancel, SSE-follow with Last-Event-ID resume, and retry/backoff
// that honors 429/503 Retry-After.
//
// The package depends only on the standard library so external tooling can
// vendor it without dragging in the simulator.
package sttsim

import (
	"fmt"
	"strings"
)

// MaxConfigCycles mirrors the server-side ceiling on warmup+measure cycles
// (sim.MaxConfigCycles); Validate rejects specs above it before they waste a
// round trip.
const MaxConfigCycles = 100_000_000

// MaxProfiles is the per-spec custom-profile ceiling (one per core).
const MaxProfiles = 64

// Topology bounds, mirroring the server-side ceilings (noc.MinMeshDim,
// noc.MaxMeshDim, noc.MaxLayers).
const (
	MinMeshDim = 2
	MaxMeshDim = 32
	MaxLayers  = 8
)

// Schemes lists the canonical scheme spellings POST /v1/jobs accepts (the
// server also accepts the paper's full names, e.g. "STT-RAM-4TSB-WB").
var Schemes = []string{"sram", "stt64", "stt4", "ss", "rca", "wb"}

// paperSchemes are the long spellings the server aliases onto Schemes.
var paperSchemes = []string{
	"sram-64tsb", "stt-ram-64tsb", "stt-ram-4tsb",
	"stt-ram-4tsb-ss", "stt-ram-4tsb-rca", "stt-ram-4tsb-wb",
}

// Suites lists the workload suites a ProfileSpec may name.
var Suites = []string{"spec", "parsec", "server"}

// ProfileSpec is one custom workload profile on the wire — the Table 3 row
// shape. Rates are per kilo-instruction.
type ProfileSpec struct {
	Name   string  `json:"name"`
	Suite  string  `json:"suite,omitempty"` // server|parsec|spec (default spec)
	L1MPKI float64 `json:"l1_mpki"`
	L2MPKI float64 `json:"l2_mpki"`
	L2WPKI float64 `json:"l2_wpki"`
	L2RPKI float64 `json:"l2_rpki"`
	Bursty bool    `json:"bursty,omitempty"`
}

// JobSpec is the body of POST /v1/jobs: one simulation request. Exactly one
// of Bench (a Table 3 benchmark, case1, or case2) or Profiles (a custom mix,
// distributed round-robin over the 64 cores) selects the workload.
type JobSpec struct {
	Scheme   string        `json:"scheme"`
	Bench    string        `json:"bench,omitempty"`
	Profiles []ProfileSpec `json:"profiles,omitempty"`

	Seed          uint64 `json:"seed,omitempty"`
	WarmupCycles  uint64 `json:"warmup_cycles,omitempty"`
	MeasureCycles uint64 `json:"measure_cycles,omitempty"`

	Regions int  `json:"regions,omitempty"`
	Corner  bool `json:"corner,omitempty"` // corner TSB placement instead of staggered
	Hops    int  `json:"hops,omitempty"`

	WriteBufferEntries    int    `json:"write_buffer_entries,omitempty"`
	ReadPreemption        bool   `json:"read_preemption,omitempty"`
	ExtraReqVC            bool   `json:"extra_req_vc,omitempty"`
	WBWindow              int    `json:"wb_window,omitempty"`
	HoldCap               int    `json:"hold_cap,omitempty"`
	BankQueueDepth        int    `json:"bank_queue_depth,omitempty"`
	HybridSRAMBanks       int    `json:"hybrid_sram_banks,omitempty"`
	EarlyWriteTermination bool   `json:"early_write_termination,omitempty"`
	AuditInterval         uint64 `json:"audit_interval,omitempty"`
	WatchdogCycles        uint64 `json:"watchdog_cycles,omitempty"`

	// TechProfile selects a registered bank technology by name ("sram",
	// "sttram", "sttram-rr10", "sotram", "hybrid16", ...); empty keeps the
	// scheme's own technology.
	TechProfile string `json:"tech_profile,omitempty"`

	// MeshX/MeshY/Layers select the network shape; zero values mean the
	// paper's 8x8x2 system.
	MeshX  int `json:"mesh_x,omitempty"`
	MeshY  int `json:"mesh_y,omitempty"`
	Layers int `json:"layers,omitempty"`

	// Stream asks for live progress snapshots and probe samples on the job's
	// SSE feed while it runs. Stream does not enter the config fingerprint:
	// streamed and unstreamed runs of one configuration share a memo slot and
	// serve byte-identical results.
	Stream bool `json:"stream,omitempty"`
}

// SetDefaults normalizes a spec in place the way the server will read it:
// scheme, bench, and suite names are lowercased and trimmed, and an empty
// profile suite becomes "spec". It never invents numeric values — zero
// cycles, regions, and hops mean "server default", and filling them in would
// change the spec's config fingerprint (and so its cache identity).
func (s *JobSpec) SetDefaults() {
	s.Scheme = strings.ToLower(strings.TrimSpace(s.Scheme))
	s.Bench = strings.ToLower(strings.TrimSpace(s.Bench))
	for i := range s.Profiles {
		p := &s.Profiles[i]
		p.Name = strings.TrimSpace(p.Name)
		p.Suite = strings.ToLower(strings.TrimSpace(p.Suite))
		if p.Suite == "" {
			p.Suite = "spec"
		}
	}
}

// Validate applies the client-side structural checks — the rejections the
// server would answer with HTTP 400 — so an obviously malformed spec fails
// before it costs a round trip. Call SetDefaults first. The server remains
// authoritative: a nil error here does not guarantee acceptance (e.g. an
// unknown benchmark name is only known server-side).
func (s JobSpec) Validate() error {
	if !knownScheme(s.Scheme) {
		return &SpecError{Field: "scheme", Msg: fmt.Sprintf("unknown scheme %q (want %s)", s.Scheme, strings.Join(Schemes, "|"))}
	}
	if s.Bench == "" && len(s.Profiles) == 0 {
		return &SpecError{Field: "bench", Msg: "one of bench or profiles is required"}
	}
	if s.Bench != "" && len(s.Profiles) > 0 {
		return &SpecError{Field: "bench", Msg: "bench and profiles are mutually exclusive"}
	}
	if len(s.Profiles) > MaxProfiles {
		return &SpecError{Field: "profiles", Msg: fmt.Sprintf("at most %d profiles, got %d", MaxProfiles, len(s.Profiles))}
	}
	for i, p := range s.Profiles {
		field := fmt.Sprintf("profiles[%d]", i)
		if p.Name == "" {
			return &SpecError{Field: field + ".name", Msg: "must be non-empty"}
		}
		if !knownSuite(p.Suite) {
			return &SpecError{Field: field + ".suite", Msg: fmt.Sprintf("unknown suite %q (want %s)", p.Suite, strings.Join(Suites, "|"))}
		}
		for _, r := range []struct {
			name string
			v    float64
		}{
			{"l1_mpki", p.L1MPKI}, {"l2_mpki", p.L2MPKI},
			{"l2_wpki", p.L2WPKI}, {"l2_rpki", p.L2RPKI},
		} {
			if r.v < 0 || r.v > 1000 || r.v != r.v {
				return &SpecError{Field: field + "." + r.name, Msg: fmt.Sprintf("rate %g outside [0,1000]", r.v)}
			}
		}
	}
	if total := s.WarmupCycles + s.MeasureCycles; total > MaxConfigCycles || total < s.WarmupCycles {
		return &SpecError{Field: "measure_cycles", Msg: fmt.Sprintf("warmup+measure = %d cycles exceeds the %d-cycle ceiling", total, uint64(MaxConfigCycles))}
	}
	switch s.Regions {
	case 0, 4, 8, 16:
	default:
		return &SpecError{Field: "regions", Msg: fmt.Sprintf("unsupported region count %d (want 4, 8, or 16)", s.Regions)}
	}
	if s.Hops < 0 || s.Hops > 14 {
		return &SpecError{Field: "hops", Msg: fmt.Sprintf("parent hop distance %d outside [1,14]", s.Hops)}
	}
	if s.WriteBufferEntries < 0 || s.WriteBufferEntries > 4096 {
		return &SpecError{Field: "write_buffer_entries", Msg: fmt.Sprintf("%d outside [0,4096]", s.WriteBufferEntries)}
	}
	if s.BankQueueDepth < 0 || s.BankQueueDepth > 4096 {
		return &SpecError{Field: "bank_queue_depth", Msg: fmt.Sprintf("%d outside [0,4096]", s.BankQueueDepth)}
	}
	if s.MeshX != 0 && (s.MeshX < MinMeshDim || s.MeshX > MaxMeshDim) {
		return &SpecError{Field: "mesh_x", Msg: fmt.Sprintf("mesh width %d outside [%d,%d]", s.MeshX, MinMeshDim, MaxMeshDim)}
	}
	if s.MeshY != 0 && (s.MeshY < MinMeshDim || s.MeshY > MaxMeshDim) {
		return &SpecError{Field: "mesh_y", Msg: fmt.Sprintf("mesh height %d outside [%d,%d]", s.MeshY, MinMeshDim, MaxMeshDim)}
	}
	if s.Layers != 0 && (s.Layers < 2 || s.Layers > MaxLayers) {
		return &SpecError{Field: "layers", Msg: fmt.Sprintf("layer count %d outside [2,%d]", s.Layers, MaxLayers)}
	}
	if s.HybridSRAMBanks < 0 || s.HybridSRAMBanks > s.numBanks() {
		return &SpecError{Field: "hybrid_sram_banks", Msg: fmt.Sprintf("%d outside [0,%d]", s.HybridSRAMBanks, s.numBanks())}
	}
	if s.WatchdogCycles != 0 && s.WatchdogCycles < 100 {
		return &SpecError{Field: "watchdog_cycles", Msg: fmt.Sprintf("%d is below the 100-cycle floor", s.WatchdogCycles)}
	}
	return nil
}

// numBanks resolves the spec's total cache-bank count (defaults: 8x8 mesh,
// 2 layers).
func (s JobSpec) numBanks() int {
	x, y, l := s.MeshX, s.MeshY, s.Layers
	if x == 0 {
		x = 8
	}
	if y == 0 {
		y = 8
	}
	if l == 0 {
		l = 2
	}
	return x * y * (l - 1)
}

func knownScheme(name string) bool {
	for _, s := range Schemes {
		if name == s {
			return true
		}
	}
	for _, s := range paperSchemes {
		if name == s {
			return true
		}
	}
	return false
}

func knownSuite(name string) bool {
	for _, s := range Suites {
		if name == s {
			return true
		}
	}
	return false
}

// SpecError is a client-side spec rejection (the local analogue of the
// server's HTTP 400).
type SpecError struct {
	Field string
	Msg   string
}

// Error renders the rejection.
func (e *SpecError) Error() string {
	return fmt.Sprintf("sttsim: invalid spec: %s: %s", e.Field, e.Msg)
}

// Job states on the wire.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// TerminalState reports whether a wire state is final.
func TerminalState(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCancelled
}

// JobStatus is the wire rendering of one job (POST /v1/jobs, GET
// /v1/jobs/{id}, and the SSE status events).
type JobStatus struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Key    string `json:"key"`
	Scheme string `json:"scheme"`
	Bench  string `json:"bench"`
	// CacheHit: answered at once with a finished run's result, without
	// queueing.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Deduped: joined an identical in-flight or memoized run.
	Deduped   bool    `json:"deduped,omitempty"`
	Stream    bool    `json:"stream,omitempty"`
	Error     string  `json:"error,omitempty"`
	Cause     string  `json:"cause,omitempty"`
	CreatedAt string  `json:"created_at"`
	Elapsed   float64 `json:"elapsed_s"`
	// Summary is the one-line result digest, present once done.
	Summary string `json:"summary,omitempty"`
}

// Terminal reports whether the status is final.
func (s JobStatus) Terminal() bool { return TerminalState(s.State) }

// JobList is the GET /v1/jobs payload (most recent first).
type JobList struct {
	Jobs []JobStatus `json:"jobs"`
}

// Health is the GET /v1/healthz/live (liveness) payload. Readiness is the
// separate GET /v1/healthz/ready: it answers 503 while draining, while the
// journal is degraded, and, in coordinator mode, while no worker is alive.
type Health struct {
	Status     string  `json:"status"` // ok | draining | journal degraded | no workers
	Version    string  `json:"version"`
	Mode       string  `json:"mode,omitempty"` // standalone | coordinator
	UptimeS    float64 `json:"uptime_s"`
	QueueDepth int     `json:"queue_depth"`
	QueueMax   int     `json:"queue_max"`
	Jobs       int     `json:"jobs"`
	// WorkersAlive is coordinator-mode only: workers seen within one lease
	// timeout.
	WorkersAlive int `json:"workers_alive,omitempty"`
}

// CacheStats counts, in GET /v1/stats, the submissions answered at once
// with a completed configuration's result (hits) and those that had to
// queue (misses).
type CacheStats struct {
	Hits     uint64  `json:"hits"`
	Misses   uint64  `json:"misses"`
	HitRatio float64 `json:"hit_ratio"`
}

// LatencySummary is the per-scheme wall-clock execution latency digest in
// GET /v1/stats.
type LatencySummary struct {
	Count int     `json:"count"`
	MeanS float64 `json:"mean_s"`
	P50S  float64 `json:"p50_s"`
	P90S  float64 `json:"p90_s"`
	P99S  float64 `json:"p99_s"`
}

// EngineStats mirrors the campaign engine's counters with wire-stable names.
type EngineStats struct {
	Executed  uint64 `json:"executed"`
	Retries   uint64 `json:"retries"`
	MemoHits  uint64 `json:"memo_hits"`
	Replayed  uint64 `json:"replayed"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Cancelled uint64 `json:"cancelled"`
	// JournalErrors counts terminal outcomes the journal failed to persist.
	JournalErrors uint64 `json:"journal_errors,omitempty"`
}

// WorkerStatus is one worker's row in DistStats.
type WorkerStatus struct {
	ID        string  `json:"id"`
	Alive     bool    `json:"alive"`
	Lease     string  `json:"lease,omitempty"` // key currently held, if any
	LastSeenS float64 `json:"last_seen_s"`
}

// DistStats is the coordinator's lease-table snapshot in GET /v1/stats.
type DistStats struct {
	WorkersAlive    int            `json:"workers_alive"`
	Queued          int            `json:"queued"`
	Leased          int            `json:"leased"`
	Delivered       uint64         `json:"delivered"`   // leases handed out, incl. re-deliveries
	Redelivered     uint64         `json:"redelivered"` // jobs re-queued after a lost or drained worker
	Expired         uint64         `json:"expired"`     // leases whose deadline lapsed
	Fenced          uint64         `json:"fenced"`      // stale completions rejected by epoch fencing
	StaleHeartbeats uint64         `json:"stale_heartbeats"`
	Completed       uint64         `json:"completed"`
	Workers         []WorkerStatus `json:"workers,omitempty"`
}

// JournalHealth is the checkpoint journal's health block in GET /v1/stats.
type JournalHealth struct {
	// RecordsWritten counts records appended this process.
	RecordsWritten uint64 `json:"records_written"`
	// AppendErrors counts appends that failed after repair-and-retry.
	AppendErrors uint64 `json:"append_errors,omitempty"`
	// SyncErrors counts failed fsyncs.
	SyncErrors uint64 `json:"sync_errors,omitempty"`
	// Compactions counts fold-and-rotate segment rotations.
	Compactions uint64 `json:"compactions"`
	// SizeBytes is the active segment's size.
	SizeBytes int64 `json:"size_bytes"`
	// LastFsyncAgeS is seconds since the last successful fsync (-1 before
	// the first).
	LastFsyncAgeS float64 `json:"last_fsync_age_s"`
	// ReplayDropped counts corrupt lines dropped by the startup replay.
	ReplayDropped int `json:"replay_dropped"`
	// TruncatedBytes is the torn tail removed by the open-time repair.
	TruncatedBytes int64 `json:"truncated_bytes,omitempty"`
	// SyncPolicy is always|interval|never.
	SyncPolicy string `json:"sync_policy"`
	// Degraded carries the terminal disk error once the journal gave up
	// (omitted while healthy). While set, /ready answers 503 and new jobs
	// are rejected; cached results still serve.
	Degraded string `json:"degraded,omitempty"`
}

// Stats is the GET /v1/stats payload.
type Stats struct {
	UptimeS     float64        `json:"uptime_s"`
	QueueDepth  int            `json:"queue_depth"`
	QueueMax    int            `json:"queue_max"`
	JobsByState map[string]int `json:"jobs_by_state"`
	Cache       CacheStats     `json:"cache"`
	Engine      EngineStats    `json:"engine"`
	RateLimited uint64         `json:"rate_limited"`
	// DroppedEvents counts SSE events discarded from full slow-subscriber
	// buffers (oldest-first).
	DroppedEvents uint64                    `json:"dropped_events"`
	Schemes       map[string]LatencySummary `json:"schemes,omitempty"`
	// Dist is coordinator-mode only: the lease table's counters.
	Dist *DistStats `json:"dist,omitempty"`
	// Journal is the checkpoint journal's health, present when one is
	// attached.
	Journal *JournalHealth `json:"journal,omitempty"`
}

// ProgressEvent is the payload of SSE "progress" events: the periodic
// run-progress snapshot of a streaming job.
type ProgressEvent struct {
	Cycle       uint64  `json:"cycle"`
	TotalCycles uint64  `json:"total_cycles"`
	Percent     float64 `json:"percent"`
	Injected    uint64  `json:"injected"`
	Delivered   uint64  `json:"delivered"`
	BankDone    uint64  `json:"bank_done"`
	Faults      uint64  `json:"faults"`
}

// SampleEvent is the payload of SSE "sample" events: one live time-series
// sampling tick of a streaming job.
type SampleEvent struct {
	Cycle   uint64             `json:"cycle"`
	Metrics map[string]float64 `json:"metrics"`
}

// ReconnectEvent is the payload of the SSE "reconnect" event a resumed feed
// (Last-Event-ID) answers first: how many events the client missed while
// disconnected.
type ReconnectEvent struct {
	LastEventID   uint64 `json:"last_event_id"`
	LatestEventID uint64 `json:"latest_event_id"`
	MissedEvents  uint64 `json:"missed_events"`
}

// APIError is the uniform error envelope every non-2xx response carries,
// annotated client-side with the HTTP status. It implements error.
type APIError struct {
	// Message is the server's "error" field.
	Message string `json:"error"`
	// RetryAfter is the server's backpressure hint in seconds, when present.
	RetryAfter int `json:"retry_after_s,omitempty"`

	// StatusCode is the HTTP status (not on the wire; filled by the client).
	StatusCode int `json:"-"`
}

// Error renders the failure.
func (e *APIError) Error() string {
	if e.StatusCode != 0 {
		return fmt.Sprintf("sttsimd: %d: %s", e.StatusCode, e.Message)
	}
	return "sttsimd: " + e.Message
}

// Temporary reports whether the request may succeed if retried (the
// backpressure and unavailability answers).
func (e *APIError) Temporary() bool {
	switch e.StatusCode {
	case 429, 502, 503, 504:
		return true
	}
	return false
}
