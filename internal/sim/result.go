package sim

import (
	"context"
	"fmt"

	"sttsim/internal/cache"
	"sttsim/internal/core"
	"sttsim/internal/energy"
	"sttsim/internal/mem"
	"sttsim/internal/noc"
	"sttsim/internal/stats"
)

// Result is everything measured over a run's measurement window.
type Result struct {
	Config Config
	Cycles uint64

	// Per-core performance.
	Committed []uint64
	IPC       []float64

	// Aggregates.
	InstructionThroughput float64
	MinIPC                float64

	// Figure 14: requester-observed full round trip (includes memory time on
	// misses), split into network and bank-queue components.
	Latency stats.LatencyBreakdown

	// Figure 7: mean packet network transit (injection to delivery, demand
	// requests + responses) and mean bank-controller queuing delay.
	NetTransit float64
	BankQueue  float64

	// Figure 3: access-after-write gap distribution (all banks merged) and
	// the mean number of buffered requests per occupied cache-layer router
	// at hop distances 1..3 (index by hop).
	GapHist *stats.Histogram
	HopReqs [4]float64

	// Substrate statistics.
	Net       noc.NetStats
	BankStats []mem.BankStats
	Cache     []cache.Stats
	MCStats   []mem.MCStats
	CoreStats []CoreStatsEntry

	// Arbiter activity (nil for non-prioritized schemes).
	Arbiter *core.ArbiterStats

	// Fault-injection and graceful-degradation activity (nil when no
	// campaign is enabled, so fault-free Results are byte-identical to the
	// pre-resilience code paths).
	Fault *FaultReport

	// Metrics is the time-series sampling log (nil unless Config.Obs enabled
	// metrics; omitted from JSON when nil so checkpoint-journal records stay
	// byte-identical for unobserved runs).
	Metrics *stats.MetricsLog `json:"metrics,omitempty"`

	// Figure 8: un-core energy.
	Energy energy.Report
}

// CoreStatsEntry pairs a core id with its counters.
type CoreStatsEntry struct {
	Core      int
	Reads     uint64
	Writes    uint64
	StallROB  uint64
	StallMSHR uint64
}

// UncoreLatency is the mean end-to-end request round trip (Figure 14's
// metric).
func (r *Result) UncoreLatency() float64 {
	return r.Latency.MeanTotal() + meanService(r)
}

func meanService(r *Result) float64 {
	// Mean bank service over completed accesses, reconstructed from bank
	// stats; reads and writes weighted by their counts.
	var reads, writes uint64
	for _, b := range r.BankStats {
		reads += b.Reads
		writes += b.Writes
	}
	if reads+writes == 0 {
		return 0
	}
	tech := r.Config.BankTech()
	return (float64(reads)*float64(tech.ReadCycles) + float64(writes)*float64(tech.WriteCycles)) /
		float64(reads+writes)
}

// Run builds a simulator for cfg, runs warmup, measures, and reports. When
// the simulated system stops making progress or corrupts its own state —
// a watchdog-detected deadlock, an invariant-audit violation, or a router-
// protocol panic — Run returns a structured *RunError (cycle, in-flight
// packet dump, audit verdict) instead of panicking.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// ctxCheckCycles is how often (simulated cycles) RunContext polls its
// context; a cancelled or expired context stops the run within one window.
const ctxCheckCycles = 2048

// RunContext is Run under a context: the campaign layer uses it to enforce
// per-run wall-clock timeouts and to drain in-flight runs on SIGINT. A
// cancelled run returns a *RunError wrapping ctx.Err() (so errors.Is sees
// context.DeadlineExceeded / context.Canceled) with the usual cycle and
// in-flight-packet context attached.
func RunContext(ctx context.Context, cfg Config) (res *Result, err error) {
	s, serr := New(cfg)
	if serr != nil {
		return nil, serr
	}
	// Runs last, once the result or failure below is built.
	defer s.Close()
	cfg = s.cfg // defaults applied
	// Router-protocol violations deep in the NoC still panic (they indicate
	// simulator bugs, not modeled faults); convert them into the same
	// structured failure the watchdog produces.
	defer func() {
		if r := recover(); r != nil {
			perr, ok := r.(error)
			if !ok {
				perr = fmt.Errorf("panic: %v", r)
			}
			res, err = nil, s.failure(perr)
		}
	}()
	end := cfg.WarmupCycles + cfg.MeasureCycles
	for s.now < end {
		if s.now%ctxCheckCycles == 0 {
			if cerr := ctx.Err(); cerr != nil {
				return nil, s.failure(cerr)
			}
		}
		if s.now == cfg.WarmupCycles {
			s.resetStats()
		}
		if serr := s.Step(); serr != nil {
			return nil, s.failure(serr)
		}
	}
	return s.result(), nil
}

// result snapshots the measurement window.
func (s *Simulator) result() *Result {
	cycles := s.cfg.MeasureCycles
	r := &Result{
		Config:    s.cfg,
		Cycles:    cycles,
		Committed: make([]uint64, len(s.cores)),
		IPC:       make([]float64, len(s.cores)),
		GapHist:   s.gapHist,
		Net:       s.net.Stats(),
	}
	for i, c := range s.cores {
		r.Committed[i] = c.Committed()
		r.IPC[i] = stats.IPC(c.Committed(), cycles)
		st := c.Stats()
		r.CoreStats = append(r.CoreStats, CoreStatsEntry{
			Core: i, Reads: st.ReadsIssued, Writes: st.WritesIssued,
			StallROB: st.StallROB, StallMSHR: st.StallMSHR,
		})
	}
	r.InstructionThroughput = stats.InstructionThroughput(r.IPC)
	r.MinIPC = stats.MinIPC(r.IPC)
	r.Latency = s.latency
	reqDelivered := r.Net.Latency[noc.ClassReq].Count() + r.Net.Latency[noc.ClassResp].Count()
	if reqDelivered > 0 {
		r.NetTransit = (r.Net.Latency[noc.ClassReq].Sum() + r.Net.Latency[noc.ClassResp].Sum()) /
			float64(reqDelivered)
	}
	var qsum, qcnt uint64
	for _, bc := range s.banks {
		bs := bc.Bank().Stats()
		qsum += bs.QueuedCycles
		qcnt += bs.Reads + bs.Writes
	}
	if qcnt > 0 {
		r.BankQueue = float64(qsum) / float64(qcnt)
	}
	for h := 1; h <= 3; h++ {
		r.HopReqs[h] = s.hopReqs[h].Mean()
	}
	for _, bc := range s.banks {
		r.BankStats = append(r.BankStats, bc.Bank().Stats())
		r.Cache = append(r.Cache, bc.Stats())
	}
	for _, mcw := range s.mcs {
		r.MCStats = append(r.MCStats, mcw.mc.Stats())
	}
	if s.arbiter != nil {
		st := s.arbiter.Stats()
		r.Arbiter = &st
	}
	if s.faults != nil {
		fr := s.freport
		es := s.faults.Stats()
		fr.WriteDraws = es.WriteDraws
		fr.WriteFailures = es.WriteFailures
		for _, cs := range r.Cache {
			fr.WriteRetries += cs.WriteRetries
			fr.RetriesExhausted += cs.RetriesExhausted
			fr.LinesInvalidated += cs.LinesInvalidated
			fr.FillsDropped += cs.FillsDropped
		}
		r.Fault = &fr
	}
	r.Metrics = s.metrics.Log()
	r.Energy = energy.ComputeN(s.cfg.BankTech(), r.BankStats, r.Net, cycles, s.topo.NumNodes(), energy.DefaultParams)
	return r
}

// Summary renders a one-line digest of the run.
func (r *Result) Summary() string {
	return fmt.Sprintf("%s/%s: IT=%.2f minIPC=%.3f netLat=%.1f queueLat=%.1f uncoreE=%.4fJ",
		r.Config.Scheme, r.Config.Assignment.Name,
		r.InstructionThroughput, r.MinIPC,
		r.Latency.MeanNetwork(), r.Latency.MeanQueue(), r.Energy.UncoreJ())
}
