package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"sttsim/internal/sim"
)

// endToEnd names the metrics a user of sttsim sees; every other metric
// describes one layer. BENCHMARK.json lists the same two sets.
var endToEnd = map[string]bool{
	"setup_s": true, "wall_s": true, "heap_mb": true,
	"jobs_per_s": true, "exec_job_p50_s": true, "exec_job_p95_s": true,
}

// metric is one reported number. Timings carry their sample count,
// quartiles, and the tail the percentile rule allows.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	TailQ float64 `json:"tail_q,omitempty"`
	Tail  float64 `json:"tail,omitempty"`
}

// report is everything one workload run measured.
type report struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Digest    string            `json:"digest"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	HostScale float64           `json:"host_scale"`
	Metrics   map[string]metric `json:"metrics"`

	refs []float64 // hostRef samples taken through the run
}

func newReport(workload string, seed uint64) *report {
	return &report{Workload: workload, Seed: seed, Metrics: map[string]metric{}}
}

// fail counts one failed operation; the first few reasons are kept.
func (r *report) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 10 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// refNominal is hostRef's time on the host the timings are scaled to.
const refNominal = 0.015

var refSink uint64

// hostRef times a fixed integer loop. Shared hosts drift in speed by ±10%
// over a minute, and the loop slows with them, so timings scaled by its
// time compare across runs made at different moments.
func hostRef() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 5_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		x *= 0x9E3779B97F4A7C15
	}
	refSink += x
	return time.Since(t0).Seconds()
}

// sampleHost takes one hostRef sample; the bench calls it between timed
// iterations.
func (r *report) sampleHost() { r.refs = append(r.refs, hostRef()) }

// normalize scales every host time to a host where hostRef takes
// refNominal: times by refNominal over the run's median hostRef sample,
// rates by its inverse. Simulated-time metrics and ratios are unchanged.
func (r *report) normalize() {
	r.sampleHost()
	r.HostScale = refNominal / median(r.refs)
	for name, m := range r.Metrics {
		f := 1.0
		switch m.Unit {
		case "s", "us", "ns":
			f = r.HostScale
		case "1/s", "cycles/s":
			f = 1 / r.HostScale
		}
		m.Value, m.Q1, m.Q3, m.Tail = m.Value*f, m.Q1*f, m.Q3*f, m.Tail*f
		r.Metrics[name] = m
	}
}

func (r *report) add(name string, value float64, unit string) {
	r.Metrics[name] = metric{Value: value, Unit: unit}
}

// timing reports the sample's quantile q (the median unless a tail metric
// asks for more) with its count, quartiles and rule-allowed tail.
func (r *report) timing(name string, xs []float64, q float64, unit string) {
	tq := tailQuantile(len(xs), 0.99)
	r.Metrics[name] = metric{
		Value: quantile(xs, q), Unit: unit, N: len(xs),
		Q1: quantile(xs, 0.25), Q3: quantile(xs, 0.75), TailQ: tq, Tail: quantile(xs, tq),
	}
}

// addTimedLoop reports the end-to-end metrics of a timed loop from its
// iterations' seconds, each iteration's executed jobs' seconds, and the
// jobs it completed. The job median is the median of the iterations'
// medians: a sweep's point times fall into groups (milc, tpcc), and a
// pooled median would sit in the gap between them, set by both groups'
// extremes. The tail pools every job.
func (r *report) addTimedLoop(walls []float64, exec [][]float64, done int) {
	r.timing("wall_s", walls, 0.5, "s")
	r.add("jobs_per_s", float64(done)/sum(walls), "1/s")
	var medians, all []float64
	for _, jobs := range exec {
		if len(jobs) > 0 {
			medians = append(medians, median(jobs))
		}
		all = append(all, jobs...)
	}
	r.timing("exec_job_p50_s", medians, 0.5, "s")
	r.timing("exec_job_p95_s", all, tailQuantile(len(all), 0.95), "s")
}

// print writes one line per metric, then the result object as the last line:
// the end-to-end metrics untraced, the per-layer metrics traced.
func (r *report) print(w io.Writer, traced bool) {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	out := map[string]metric{}
	for _, name := range names {
		m := r.Metrics[name]
		line := fmt.Sprintf("%s %s %.6g %s", r.Workload, name, m.Value, m.Unit)
		if m.N > 0 {
			line += fmt.Sprintf(" n=%d q1=%.6g q3=%.6g %s=%.6g", m.N, m.Q1, m.Q3, pctName(m.TailQ), m.Tail)
		}
		fmt.Fprintln(w, line)
		if endToEnd[name] != traced {
			out[name] = metric{Value: m.Value, Unit: m.Unit}
		}
	}
	fmt.Fprintf(w, "%s digest %s\n", r.Workload, r.Digest)
	fmt.Fprintf(w, "%s host_scale %.6g\n", r.Workload, r.HostScale)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "%s FAIL %s\n", r.Workload, f)
	}
	line, _ := json.Marshal(map[string]any{
		"correct": r.Failed == 0, "attempted": r.Attempted, "failed": r.Failed, "metrics": out,
	})
	fmt.Fprintf(w, "%s\n", line)
}

// digest is the SHA-256 of the concatenated result bytes.
func digest(blobs [][]byte) string {
	h := sha256.New()
	for _, b := range blobs {
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runtimeSample reads the Go runtime counters the per-iteration go.* metrics
// are deltas of.
type runtimeSample struct{ allocBytes, gcCPU, gcCycles float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return runtimeSample{float64(s[0].Value.Uint64()), s[1].Value.Float64(), float64(s[2].Value.Uint64())}
}

// runtimeDeltas collects go.* deltas over the timed iterations.
type runtimeDeltas struct{ allocMB, gcCPU, gcCycles []float64 }

func (d *runtimeDeltas) observe(before, after runtimeSample) {
	d.allocMB = append(d.allocMB, (after.allocBytes-before.allocBytes)/1e6)
	d.gcCPU = append(d.gcCPU, after.gcCPU-before.gcCPU)
	d.gcCycles = append(d.gcCycles, after.gcCycles-before.gcCycles)
}

func (d *runtimeDeltas) report(r *report) {
	r.add("go.alloc_mb", median(d.allocMB), "MB")
	r.add("go.gc_cpu_s", median(d.gcCPU), "s")
	r.add("go.gc_cycles", median(d.gcCycles), "count")
}

// liveHeapMB is the live heap one constructed simulator holds: the
// difference in /gc/heap/live:bytes after a full GC with and without it.
func liveHeapMB(cfg sim.Config) (float64, error) {
	live := func() float64 {
		runtime.GC()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		metrics.Read(s)
		return float64(s[0].Value.Uint64())
	}
	before := live()
	s, err := sim.New(cfg)
	if err != nil {
		return 0, err
	}
	after := live()
	s.Close()
	return (after - before) / 1e6, nil
}

// maxHeapMB is liveHeapMB's maximum over a workload's configs.
func maxHeapMB(cfgs []sim.Config) (float64, error) {
	var peak float64
	for _, cfg := range cfgs {
		mb, err := liveHeapMB(cfg)
		if err != nil {
			return 0, err
		}
		peak = max(peak, mb)
	}
	return peak, nil
}

// addModel reports the modelled layers' statistics, simulated time, as the
// mean over the results. They are exact: a change that only speeds up the
// simulator must leave every one of them identical.
func addModel(r *report, results []*sim.Result) {
	var sum []stat
	for i, res := range results {
		for j, s := range modelStats(res) {
			if i == 0 {
				sum = append(sum, s)
			} else {
				sum[j].v += s.v
			}
		}
	}
	for _, s := range sum {
		r.add(s.name, s.v/float64(len(results)), s.unit)
	}
}

type stat struct {
	name, unit string
	v          float64
}

func modelStats(res *sim.Result) []stat {
	cycles := float64(res.Cycles)
	var committed, stallROB, stallMSHR float64
	for i, c := range res.Committed {
		committed += float64(c)
		stallROB += float64(res.CoreStats[i].StallROB)
		stallMSHR += float64(res.CoreStats[i].StallMSHR)
	}
	coreCycles := float64(len(res.Committed)) * cycles
	var bankReads, bankWrites, busy float64
	for _, b := range res.BankStats {
		bankReads += float64(b.Reads)
		bankWrites += float64(b.Writes)
		busy += float64(b.BusyCycles)
	}
	var mcReads, mcWrites float64
	for _, m := range res.MCStats {
		mcReads += float64(m.Reads)
		mcWrites += float64(m.Writes)
	}
	var hits, misses, writebacks, mshrStalls float64
	for _, c := range res.Cache {
		hits += float64(c.ReadHits)
		misses += float64(c.ReadMisses)
		writebacks += float64(c.Writebacks)
		mshrStalls += float64(c.MSHRStalls)
	}
	var delayed, forwarded float64
	if a := res.Arbiter; a != nil {
		delayed = float64(a.DelayDecisions)
		forwarded = float64(a.ForwardedReads + a.ForwardedWrites)
	}
	return []stat{
		{"model.ipc", "inst/cycle", res.InstructionThroughput},
		{"model.min_ipc", "inst/cycle", res.MinIPC},
		{"model.uncore_latency_cyc", "cycles", res.UncoreLatency()},
		{"model.net_latency_cyc", "cycles", res.Latency.MeanNetwork()},
		{"model.queue_latency_cyc", "cycles", res.Latency.MeanQueue()},
		{"cpu.committed_minst", "Minst", committed / 1e6},
		{"cpu.stall_rob_frac", "ratio", stallROB / coreCycles},
		{"cpu.stall_mshr_frac", "ratio", stallMSHR / coreCycles},
		{"noc.packets", "count", float64(res.Net.PacketsDelivered)},
		{"noc.flit_hops", "count", flitHops(res)},
		{"noc.buffer_writes", "count", float64(res.Net.BufferWrites)},
		{"noc.transit_cyc", "cycles", res.NetTransit},
		{"noc.hops_mean", "hops", res.Net.Hops.Mean()},
		{"core.delay_decisions", "count", delayed},
		{"core.forwarded", "count", forwarded},
		{"mem.bank_reads", "count", bankReads},
		{"mem.bank_writes", "count", bankWrites},
		{"mem.bank_busy_frac", "ratio", busy / (float64(len(res.BankStats)) * cycles)},
		{"mem.bank_queue_cyc", "cycles", res.BankQueue},
		{"mem.mc_reads", "count", mcReads},
		{"mem.mc_writes", "count", mcWrites},
		{"cache.read_hit_ratio", "ratio", hits / (hits + misses)},
		{"cache.writebacks", "count", writebacks},
		{"cache.mshr_stalls", "count", mshrStalls},
		{"energy.uncore_mj", "mJ", res.Energy.UncoreJ() * 1e3},
	}
}

// flitHops counts the measure window's flit traversals of links, TSVs and
// TSBs: the simulated events router work scales with.
func flitHops(res *sim.Result) float64 {
	return float64(res.Net.LinkFlits + res.Net.TSVFlits + res.Net.TSBFlits)
}
