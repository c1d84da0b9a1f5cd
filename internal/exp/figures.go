package exp

import (
	"fmt"
	"io"

	"sttsim/internal/sim"
	"sttsim/internal/stats"
	"sttsim/internal/workload"
)

// ---------------------------------------------------------------------------
// Figure 3: distribution of accesses after a write, and buffered two-hop
// requests per router.
// ---------------------------------------------------------------------------

// Fig3Entry is one benchmark's access-gap characterization.
type Fig3Entry struct {
	Profile workload.Profile
	// BinPct are the Figure 3 bins (<16, 16-33, 33-66, 66-99, 99-132,
	// 132-165, 165+) as percentages of all bank accesses after a write.
	BinPct []float64
	// TwoHopReqs is the mean number of buffered demand requests two hops
	// from their destination per occupied cache-layer router (the "#Req"
	// inset).
	TwoHopReqs float64
	// Failed is the failure cell when the run did not complete.
	Failed string
}

// Figure3 characterizes the access gaps on the STT-RAM baseline.
func Figure3(r *Runner) ([]Fig3Entry, error) {
	for _, prof := range r.Options().benchmarks() {
		r.Prefetch(SchemeConfig(sim.SchemeSTT64TSB, prof))
	}
	var out []Fig3Entry
	for _, prof := range r.Options().benchmarks() {
		res, err := r.RunScheme(sim.SchemeSTT64TSB, prof)
		if err != nil {
			out = append(out, Fig3Entry{Profile: prof, Failed: failedCell(err)})
			continue
		}
		out = append(out, Fig3Entry{
			Profile:    prof,
			BinPct:     res.GapHist.Percents(),
			TwoHopReqs: res.HopReqs[2],
		})
	}
	return out, nil
}

// PrintFigure3 renders the histogram rows. Failed runs render as failure
// cells and are excluded from the average.
func PrintFigure3(w io.Writer, entries []Fig3Entry) {
	h := stats.NewGapHistogram()
	header := []string{"bench"}
	for i := 0; i < h.Bins(); i++ {
		header = append(header, h.Label(i)+"%")
	}
	header = append(header, "#Req(2hop)")
	t := &table{header: header}
	var avg []float64
	n := 0
	for _, e := range entries {
		row := []string{e.Profile.Name}
		if e.Failed != "" {
			for i := 0; i < h.Bins(); i++ {
				row = append(row, e.Failed)
			}
			row = append(row, e.Failed)
			t.add(row...)
			continue
		}
		n++
		for i, p := range e.BinPct {
			row = append(row, f2(p))
			if len(avg) <= i {
				avg = append(avg, 0)
			}
			avg[i] += p
		}
		row = append(row, f2(e.TwoHopReqs))
		t.add(row...)
	}
	if n > 0 {
		row := []string{"AVG"}
		for _, v := range avg {
			row = append(row, f2(v/float64(n)))
		}
		row = append(row, "")
		t.add(row...)
	}
	t.write(w)
}

// ---------------------------------------------------------------------------
// Figure 6: system throughput of the six schemes normalized to SRAM-64TSB.
// ---------------------------------------------------------------------------

// Fig6Entry is one benchmark's normalized performance across schemes.
type Fig6Entry struct {
	Profile workload.Profile
	// Normalized[s] is PerfMetric(scheme s) / PerfMetric(SRAM-64TSB).
	Normalized [sim.NumSchemes]float64
	// Failed[s] is the failure cell for scheme s when its run (or the
	// SRAM-64TSB baseline) did not complete.
	Failed [sim.NumSchemes]string
}

// Fig6Result groups entries by suite with averages.
type Fig6Result struct {
	Entries []Fig6Entry
}

// SuiteAverage returns the mean normalized performance per scheme over one
// suite (or over everything when suite is -1). Failed cells are excluded
// per scheme.
func (f *Fig6Result) SuiteAverage(suite workload.Suite, all bool) [sim.NumSchemes]float64 {
	var sum [sim.NumSchemes]float64
	var n [sim.NumSchemes]int
	for _, e := range f.Entries {
		if !all && e.Profile.Suite != suite {
			continue
		}
		for s := range e.Normalized {
			if e.Failed[s] != "" {
				continue
			}
			sum[s] += e.Normalized[s]
			n[s]++
		}
	}
	for s := range sum {
		if n[s] > 0 {
			sum[s] /= float64(n[s])
		}
	}
	return sum
}

// Figure6 runs every benchmark under all six schemes. Individual run
// failures become failure cells; the campaign continues.
func Figure6(r *Runner) (*Fig6Result, error) {
	profs := r.Options().benchmarks()
	for _, prof := range profs {
		for _, s := range sim.AllSchemes() {
			r.Prefetch(SchemeConfig(s, prof))
		}
	}
	out := &Fig6Result{}
	for _, prof := range profs {
		e := Fig6Entry{Profile: prof}
		base, err := r.RunScheme(sim.SchemeSRAM64TSB, prof)
		if err != nil {
			// Without the baseline nothing normalizes: mark the whole row.
			for s := range e.Failed {
				e.Failed[s] = failedCell(err)
			}
			out.Entries = append(out.Entries, e)
			continue
		}
		baseline := PerfMetric(prof, base)
		for _, s := range sim.AllSchemes() {
			res, err := r.RunScheme(s, prof)
			if err != nil {
				e.Failed[s] = failedCell(err)
				continue
			}
			if baseline > 0 {
				e.Normalized[s] = PerfMetric(prof, res) / baseline
			}
		}
		out.Entries = append(out.Entries, e)
	}
	return out, nil
}

// PrintFigure6 renders per-suite blocks in the paper's layout.
func PrintFigure6(w io.Writer, f *Fig6Result) {
	for _, suite := range []workload.Suite{workload.SuiteServer, workload.SuitePARSEC, workload.SuiteSPEC} {
		metric := "IPC (slowest thread)"
		if suite == workload.SuiteSPEC {
			metric = "Instruction throughput"
		}
		fmt.Fprintf(w, "-- %s: %s normalized to SRAM-64TSB --\n", suite, metric)
		t := &table{header: append([]string{"bench"}, schemeHeaders()...)}
		found := false
		for _, e := range f.Entries {
			if e.Profile.Suite != suite {
				continue
			}
			found = true
			row := []string{e.Profile.Name}
			for _, s := range sim.AllSchemes() {
				if e.Failed[s] != "" {
					row = append(row, e.Failed[s])
					continue
				}
				row = append(row, f3(e.Normalized[s]))
			}
			t.add(row...)
		}
		if !found {
			continue
		}
		avg := f.SuiteAverage(suite, false)
		row := []string{"Avg."}
		for _, s := range sim.AllSchemes() {
			row = append(row, f3(avg[s]))
		}
		t.add(row...)
		t.write(w)
		fmt.Fprintln(w)
	}
}

func schemeHeaders() []string {
	var out []string
	for _, s := range sim.AllSchemes() {
		out = append(out, s.String())
	}
	return out
}

// ---------------------------------------------------------------------------
// Figure 7: packet latency split into network and bank-queuing components.
// ---------------------------------------------------------------------------

// Fig7Apps are the benchmarks the paper breaks down.
var Fig7Apps = []string{"sap", "sjbb", "sclust", "lbm", "hmmer"}

// Fig7Entry is one benchmark's latency breakdown per scheme.
type Fig7Entry struct {
	Bench string
	// NetLat and QueueLat are mean cycles per scheme.
	NetLat   [sim.NumSchemes]float64
	QueueLat [sim.NumSchemes]float64
	// Failed[s] is the failure cell for scheme s.
	Failed [sim.NumSchemes]string
}

// Figure7 measures the latency split.
func Figure7(r *Runner) ([]Fig7Entry, error) {
	for _, name := range Fig7Apps {
		for _, s := range sim.AllSchemes() {
			r.Prefetch(SchemeConfig(s, workload.MustByName(name)))
		}
	}
	var out []Fig7Entry
	for _, name := range Fig7Apps {
		prof := workload.MustByName(name)
		e := Fig7Entry{Bench: name}
		for _, s := range sim.AllSchemes() {
			res, err := r.RunScheme(s, prof)
			if err != nil {
				e.Failed[s] = failedCell(err)
				continue
			}
			e.NetLat[s] = res.NetTransit
			e.QueueLat[s] = res.BankQueue
		}
		out = append(out, e)
	}
	return out, nil
}

// PrintFigure7 renders the breakdown, normalized to SRAM-64TSB as in the
// paper (the SRAM row shows raw cycles).
func PrintFigure7(w io.Writer, entries []Fig7Entry) {
	t := &table{header: append([]string{"bench", "component"}, schemeHeaders()...)}
	for _, e := range entries {
		netRow := []string{e.Bench, "net lat"}
		queRow := []string{"", "que lat"}
		baseFailed := e.Failed[sim.SchemeSRAM64TSB]
		for _, s := range sim.AllSchemes() {
			if e.Failed[s] != "" {
				netRow = append(netRow, e.Failed[s])
				queRow = append(queRow, e.Failed[s])
				continue
			}
			if s == sim.SchemeSRAM64TSB {
				netRow = append(netRow, f2(e.NetLat[s])+"cyc")
				queRow = append(queRow, f2(e.QueueLat[s])+"cyc")
				continue
			}
			if baseFailed != "" {
				// Nothing to normalize against.
				netRow = append(netRow, baseFailed)
				queRow = append(queRow, baseFailed)
				continue
			}
			nl, ql := 0.0, 0.0
			if e.NetLat[sim.SchemeSRAM64TSB] > 0 {
				nl = e.NetLat[s] / e.NetLat[sim.SchemeSRAM64TSB]
			}
			if e.QueueLat[sim.SchemeSRAM64TSB] > 0 {
				ql = e.QueueLat[s] / e.QueueLat[sim.SchemeSRAM64TSB]
			} else {
				ql = e.QueueLat[s]
			}
			netRow = append(netRow, f2(nl)+"x")
			queRow = append(queRow, f2(ql)+"x")
		}
		t.add(netRow...)
		t.add(queRow...)
	}
	t.write(w)
}

// ---------------------------------------------------------------------------
// Figure 8: un-core energy normalized to SRAM-64TSB.
// ---------------------------------------------------------------------------

// Fig8Schemes are the schemes Figure 8 plots (the paper omits plain 4TSB).
var Fig8Schemes = []sim.Scheme{
	sim.SchemeSRAM64TSB, sim.SchemeSTT64TSB,
	sim.SchemeSTT4TSBSS, sim.SchemeSTT4TSBRCA, sim.SchemeSTT4TSBWB,
}

// Fig8Entry is one benchmark's normalized un-core energy.
type Fig8Entry struct {
	Profile    workload.Profile
	Normalized map[sim.Scheme]float64
	// Failed[s] is the failure cell for scheme s.
	Failed map[sim.Scheme]string
}

// Figure8 measures un-core energy per scheme.
func Figure8(r *Runner) ([]Fig8Entry, error) {
	for _, prof := range r.Options().benchmarks() {
		for _, s := range Fig8Schemes {
			r.Prefetch(SchemeConfig(s, prof))
		}
	}
	var out []Fig8Entry
	for _, prof := range r.Options().benchmarks() {
		e := Fig8Entry{Profile: prof,
			Normalized: make(map[sim.Scheme]float64),
			Failed:     make(map[sim.Scheme]string)}
		base, err := r.RunScheme(sim.SchemeSRAM64TSB, prof)
		if err != nil {
			for _, s := range Fig8Schemes {
				e.Failed[s] = failedCell(err)
			}
			out = append(out, e)
			continue
		}
		for _, s := range Fig8Schemes {
			res, err := r.RunScheme(s, prof)
			if err != nil {
				e.Failed[s] = failedCell(err)
				continue
			}
			if base.Energy.UncoreJ() > 0 {
				e.Normalized[s] = res.Energy.UncoreJ() / base.Energy.UncoreJ()
			}
		}
		out = append(out, e)
	}
	return out, nil
}

// PrintFigure8 renders normalized energies with the all-benchmark average.
// Failed cells are excluded from the per-scheme average.
func PrintFigure8(w io.Writer, entries []Fig8Entry) {
	header := []string{"bench"}
	for _, s := range Fig8Schemes {
		header = append(header, s.String())
	}
	t := &table{header: header}
	avg := make(map[sim.Scheme]float64)
	n := make(map[sim.Scheme]int)
	for _, e := range entries {
		row := []string{e.Profile.Name}
		for _, s := range Fig8Schemes {
			if cell := e.Failed[s]; cell != "" {
				row = append(row, cell)
				continue
			}
			row = append(row, f3(e.Normalized[s]))
			avg[s] += e.Normalized[s]
			n[s]++
		}
		t.add(row...)
	}
	if len(entries) > 0 {
		row := []string{"Avg."}
		for _, s := range Fig8Schemes {
			if n[s] == 0 {
				row = append(row, "-")
				continue
			}
			row = append(row, f3(avg[s]/float64(n[s])))
		}
		t.add(row...)
	}
	t.write(w)
}

// ---------------------------------------------------------------------------
// Figure 9 + 10: multi-programmed case studies.
// ---------------------------------------------------------------------------

// Fig9Case is one workload mix's weighted speedup and instruction throughput
// per scheme, normalized to SRAM-64TSB.
type Fig9Case struct {
	Name string
	WS   [sim.NumSchemes]float64
	IT   [sim.NumSchemes]float64
	// Failed[s] is the failure cell for scheme s (set when any of the
	// case's mixes or alone-references failed under that scheme).
	Failed [sim.NumSchemes]string
}

// caseMetrics computes WS and IT for one mix under one scheme, using
// homogeneous alone-runs (same scheme) as the Equation 2 reference.
func (r *Runner) caseMetrics(a workload.Assignment, s sim.Scheme) (ws, it float64, res *sim.Result, err error) {
	res, err = r.Run(sim.Config{Scheme: s, Assignment: a})
	if err != nil {
		return 0, 0, nil, err
	}
	alone := make([]float64, len(res.IPC))
	for i := range res.IPC {
		alone[i], err = r.AloneIPC(s, a.Profiles[i])
		if err != nil {
			return 0, 0, nil, err
		}
	}
	return stats.WeightedSpeedup(res.IPC, alone), res.InstructionThroughput, res, nil
}

// prefetchCase queues a mix's runs and its alone-references.
func (r *Runner) prefetchCase(a workload.Assignment, s sim.Scheme) {
	r.Prefetch(sim.Config{Scheme: s, Assignment: a})
	for _, prof := range a.Profiles {
		r.Prefetch(SchemeConfig(s, prof))
	}
}

// Figure9 runs Case-1, Case-2 and the 32-mix aggregate (Case-3). A failure
// in any run of a (case, scheme) pair marks that cell failed; the other
// schemes and cases still report.
func Figure9(r *Runner) ([]Fig9Case, error) {
	mixCount := 32
	if r.Options().Quick {
		mixCount = 4
	}
	cases := []struct {
		name  string
		mixes []workload.Assignment
	}{
		{"Case-1", []workload.Assignment{workload.Case1()}},
		{"Case-2", []workload.Assignment{workload.Case2()}},
		{"Case-3(aggregate)", numberMixes(workload.Case3(r.Options().Seed + 7)[:mixCount])},
	}
	for _, c := range cases {
		for _, s := range sim.AllSchemes() {
			for _, mix := range c.mixes {
				r.prefetchCase(mix, s)
			}
		}
	}
	var out []Fig9Case
	for _, c := range cases {
		fc := Fig9Case{Name: c.name}
		var baseWS, baseIT float64
		baseErr := ""
		for _, s := range sim.AllSchemes() {
			var wsSum, itSum float64
			failed := ""
			for _, mix := range c.mixes {
				ws, it, _, err := r.caseMetrics(mix, s)
				if err != nil {
					failed = failedCell(err)
					break
				}
				wsSum += ws
				itSum += it
			}
			if failed != "" {
				fc.Failed[s] = failed
				if s == sim.SchemeSRAM64TSB {
					baseErr = failed
				}
				continue
			}
			wsSum /= float64(len(c.mixes))
			itSum /= float64(len(c.mixes))
			if s == sim.SchemeSRAM64TSB {
				baseWS, baseIT = wsSum, itSum
			}
			if baseErr != "" {
				fc.Failed[s] = baseErr
				continue
			}
			if baseWS > 0 {
				fc.WS[s] = wsSum / baseWS
			}
			if baseIT > 0 {
				fc.IT[s] = itSum / baseIT
			}
		}
		out = append(out, fc)
	}
	return out, nil
}

// numberMixes gives each mix a unique name so run memoization never
// conflates two random mixes that happen to share a label.
func numberMixes(mixes []workload.Assignment) []workload.Assignment {
	for i := range mixes {
		mixes[i].Name = fmt.Sprintf("%s-%d", mixes[i].Name, i)
	}
	return mixes
}

// PrintFigure9 renders WS/IT rows per case.
func PrintFigure9(w io.Writer, cases []Fig9Case) {
	t := &table{header: append([]string{"case", "metric"}, schemeHeaders()...)}
	for _, c := range cases {
		ws := []string{c.Name, "WS"}
		it := []string{"", "IT"}
		for _, s := range sim.AllSchemes() {
			if c.Failed[s] != "" {
				ws = append(ws, c.Failed[s])
				it = append(it, c.Failed[s])
				continue
			}
			ws = append(ws, f3(c.WS[s]))
			it = append(it, f3(c.IT[s]))
		}
		t.add(ws...)
		t.add(it...)
	}
	t.write(w)
}

// Fig10Entry is one application's maximum slowdown in Case-2 (Equation 3).
type Fig10Entry struct {
	Bench    string
	STT64TSB float64
	WBScheme float64
	// Failed holds per-column failure cells ([0]: STT-64TSB, [1]: WB).
	Failed [2]string
}

// Figure10 measures per-application fairness in the Case-2 mix.
func Figure10(r *Runner) ([]Fig10Entry, error) {
	mix := workload.Case2()
	schemes := []sim.Scheme{sim.SchemeSTT64TSB, sim.SchemeSTT4TSBWB}
	for _, s := range schemes {
		r.prefetchCase(mix, s)
	}
	slow := make(map[string][2]float64)
	var colFailed [2]string
	for si, s := range schemes {
		res, err := r.Run(sim.Config{Scheme: s, Assignment: mix})
		if err != nil {
			colFailed[si] = failedCell(err)
			continue
		}
		for i, ipc := range res.IPC {
			prof := mix.Profiles[i]
			alone, err := r.AloneIPC(s, prof)
			if err != nil {
				colFailed[si] = failedCell(err)
				break
			}
			if ipc <= 0 {
				continue
			}
			sd := alone / ipc
			cur := slow[prof.Name]
			if sd > cur[si] {
				cur[si] = sd
				slow[prof.Name] = cur
			}
		}
	}
	var out []Fig10Entry
	for _, name := range []string{"lbm", "hmmer", "bzip2", "libqntm"} {
		v := slow[name]
		out = append(out, Fig10Entry{Bench: name, STT64TSB: v[0], WBScheme: v[1], Failed: colFailed})
	}
	return out, nil
}

// PrintFigure10 renders the fairness comparison.
func PrintFigure10(w io.Writer, entries []Fig10Entry) {
	t := &table{header: []string{"bench", "MaxSlowdown STT-RAM-64TSB", "MaxSlowdown STT-RAM-4TSB-WB"}}
	for _, e := range entries {
		c0, c1 := f2(e.STT64TSB), f2(e.WBScheme)
		if e.Failed[0] != "" {
			c0 = e.Failed[0]
		}
		if e.Failed[1] != "" {
			c1 = e.Failed[1]
		}
		t.add(e.Bench, c0, c1)
	}
	t.write(w)
}
