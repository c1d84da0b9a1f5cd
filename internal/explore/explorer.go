package explore

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"sttsim/internal/campaign"
	"sttsim/internal/service"
	"sttsim/internal/sim"
	api "sttsim/pkg/sttsim"
)

// Explorer drives a search strategy over a parameter space on the campaign
// engine, inheriting its dedup (fingerprint memo), supervision (timeouts,
// retries, panic recovery), parallelism, and checkpoint journal.
type Explorer struct {
	Space    *Space
	Strategy Strategy

	// Policy tunes the underlying campaign engine (Jobs bounds parallelism).
	Policy campaign.Policy

	// Remote, when set, evaluates every point on a live sttsimd through the
	// client SDK instead of in-process: each evaluation submits the point's
	// own job spec at the evaluation's budget.
	Remote *api.Client

	// JournalPath checkpoints every finished evaluation; "" disables.
	// With Resume, finished runs replay from the journal instead of
	// re-executing.
	JournalPath string
	Resume      bool

	// Logf receives progress lines (default: discarded).
	Logf func(format string, args ...any)
}

// Failure records a point the evaluator could not score.
type Failure struct {
	ID    string `json:"id"`
	Cause string `json:"cause"`
	Error string `json:"error"`
}

// Report is the outcome of one exploration.
type Report struct {
	Strategy  string `json:"strategy"`
	SpaceSize int    `json:"space_size"` // raw cartesian size
	Pruned    int    `json:"pruned"`     // points the constraints rejected

	// Evaluations holds every full-budget evaluation, in canonical ID order —
	// the set the frontier is drawn from.
	Evaluations []Evaluation `json:"evaluations"`
	// Frontier is the non-dominated subset, in canonical ID order.
	Frontier []Evaluation `json:"frontier"`
	// Failures lists points whose runs ended in a terminal error.
	Failures []Failure `json:"failures,omitempty"`

	// TotalSimCycles is the summed measurement budget of every completed
	// evaluation, at every budget level — the currency successive halving
	// economizes relative to a full grid.
	TotalSimCycles uint64 `json:"total_sim_cycles"`
	// LowBudgetEvals counts the cheap scouting evaluations below full budget.
	LowBudgetEvals int `json:"low_budget_evals"`

	// Engine is the campaign engine's digest (executed, memo hits, replays).
	Engine campaign.Stats `json:"engine"`
}

// Run executes the search to completion and assembles the report.
func (x *Explorer) Run(ctx context.Context) (*Report, error) {
	if x.Space == nil || x.Strategy == nil {
		return nil, fmt.Errorf("explore: explorer needs a space and a strategy")
	}
	logf := x.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	fullBudget := x.Space.Base.MeasureCycles
	if fullBudget == 0 {
		fullBudget = 60_000 // sim.Config's own default
	}

	eng := campaign.NewWithContext(ctx, x.Policy)
	defer eng.Close()
	if x.JournalPath != "" {
		j, recs, err := campaign.OpenJournal(x.JournalPath, x.Resume)
		if err != nil {
			return nil, err
		}
		if n, dropped := eng.Preload(recs), j.Stats().ReplayDropped; n > 0 || dropped > 0 {
			logf("explore: resumed %d finished evaluation(s) from %s (%d corrupt line(s) dropped)",
				n, x.JournalPath, dropped)
		}
		eng.AttachJournal(j)
	}

	rep := &Report{Strategy: x.Strategy.Name(), SpaceSize: x.Space.Size()}
	_, rep.Pruned = x.Space.Points()

	batch := func(ctx context.Context, pts []Point, budget uint64) ([]*Evaluation, error) {
		logf("explore: evaluating %d point(s) at %d cycles", len(pts), budget)
		type slot struct {
			cfg    sim.Config
			handle *campaign.Handle
			err    error
		}
		slots := make([]slot, len(pts))
		for i, p := range pts {
			spec, err := x.Space.spec(p)
			if err != nil {
				slots[i].err = err
				continue
			}
			spec.MeasureCycles = budget
			cfg, err := service.SpecConfig(spec)
			if err != nil {
				slots[i].err = err
				continue
			}
			var run campaign.RunFunc
			if x.Remote != nil {
				run = remoteRun(x.Remote, spec)
			}
			slots[i].cfg = cfg
			slots[i].handle = eng.SubmitKeyed(cfg.Fingerprint(), cfg, run)
		}
		out := make([]*Evaluation, len(pts))
		for i, p := range pts {
			var res *sim.Result
			err := slots[i].err
			if err == nil && slots[i].handle != nil {
				res, err = slots[i].handle.Outcome()
			}
			if err != nil {
				if cerr := ctx.Err(); cerr != nil {
					return nil, cerr
				}
				rep.Failures = append(rep.Failures, Failure{
					ID: p.ID, Cause: campaign.Cause(err), Error: err.Error(),
				})
				logf("explore: %s failed (%s): %v", p.ID, campaign.Cause(err), err)
				continue
			}
			e := &Evaluation{
				ID:          p.ID,
				Values:      append([]string(nil), p.Values...),
				Fingerprint: slots[i].handle.Key,
				Cycles:      budget,
				Objectives:  Score(slots[i].cfg, res),
				Throughput:  res.InstructionThroughput,
			}
			out[i] = e
			rep.TotalSimCycles += budget
			if budget < fullBudget {
				rep.LowBudgetEvals++
			}
		}
		return out, nil
	}

	finals, err := x.Strategy.Run(ctx, x.Space, fullBudget, batch)
	if err != nil {
		return nil, err
	}

	frontier := NewFrontier()
	for _, e := range finals {
		if e == nil {
			continue
		}
		rep.Evaluations = append(rep.Evaluations, *e)
		frontier.Add(*e)
	}
	sort.Slice(rep.Evaluations, func(i, j int) bool { return rep.Evaluations[i].ID < rep.Evaluations[j].ID })
	sort.Slice(rep.Failures, func(i, j int) bool { return rep.Failures[i].ID < rep.Failures[j].ID })
	rep.Frontier = frontier.Points()
	rep.Engine = eng.Stats()
	logf("explore: %d/%d full-budget evaluation(s), frontier size %d, %s",
		len(rep.Evaluations), len(finals), len(rep.Frontier), rep.Engine)
	return rep, nil
}

// WritePareto streams the frontier as JSONL, one canonical-order member per
// line — byte-identical across runs of the same seed and space at any
// parallelism.
func (r *Report) WritePareto(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, e := range r.Frontier {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV writes the frontier as a spreadsheet-friendly table.
func (r *Report) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{"id"}
	if len(r.Frontier) > 0 {
		for range r.Frontier[0].Values {
			header = append(header, "") // patched below from the IDs
		}
	}
	header = append(header, "latency_cycles", "energy_j", "area_mm2", "throughput", "cycles")
	// Axis names come from the canonical IDs ("axis=value,..."), so the CSV
	// is self-describing without threading the Space through.
	if len(r.Frontier) > 0 {
		for i, part := range strings.Split(r.Frontier[0].ID, ",") {
			if eq := strings.IndexByte(part, '='); eq > 0 && 1+i < len(header) {
				header[1+i] = part[:eq]
			}
		}
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, e := range r.Frontier {
		row := []string{e.ID}
		row = append(row, e.Values...)
		row = append(row,
			strconv.FormatFloat(e.LatencyCycles, 'g', -1, 64),
			strconv.FormatFloat(e.EnergyJ, 'g', -1, 64),
			strconv.FormatFloat(e.AreaMM2, 'g', -1, 64),
			strconv.FormatFloat(e.Throughput, 'g', -1, 64),
			strconv.FormatUint(e.Cycles, 10))
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteSummary renders the human-readable digest: the frontier ranked
// best-first by the scalar key, then the search accounting.
func (r *Report) WriteSummary(w io.Writer) error {
	f := NewFrontier()
	for _, e := range r.Frontier {
		f.Add(e)
	}
	fmt.Fprintf(w, "strategy %s over %d-point space (%d pruned by constraints)\n",
		r.Strategy, r.SpaceSize, r.Pruned)
	fmt.Fprintf(w, "%d full-budget evaluation(s), %d cheap scout(s), %d total simulated cycles\n",
		len(r.Evaluations), r.LowBudgetEvals, r.TotalSimCycles)
	fmt.Fprintf(w, "engine: %s\n", r.Engine)
	if len(r.Failures) > 0 {
		fmt.Fprintf(w, "%d failure(s):\n", len(r.Failures))
		for _, fl := range r.Failures {
			fmt.Fprintf(w, "  %-40s %s\n", fl.ID, fl.Cause)
		}
	}
	fmt.Fprintf(w, "\nPareto frontier (%d point(s), best scalar rank first):\n", len(r.Frontier))
	fmt.Fprintf(w, "  %-4s %-44s %12s %12s %10s %8s\n", "rank", "point", "latency(cyc)", "energy(J)", "area(mm2)", "IPC")
	for i, e := range f.Ranked() {
		fmt.Fprintf(w, "  %-4d %-44s %12.2f %12.4g %10.2f %8.3f\n",
			i+1, e.ID, e.LatencyCycles, e.EnergyJ, e.AreaMM2, e.Throughput)
	}
	return nil
}

// WriteOutputs materializes the three artifacts under dir: pareto.jsonl,
// pareto.csv, and summary.txt.
func (r *Report) WriteOutputs(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	files := []struct {
		name  string
		write func(io.Writer) error
	}{
		{"pareto.jsonl", r.WritePareto},
		{"pareto.csv", r.WriteCSV},
		{"summary.txt", r.WriteSummary},
	}
	for _, spec := range files {
		f, err := os.Create(filepath.Join(dir, spec.name))
		if err != nil {
			return err
		}
		if err := spec.write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// remoteRun evaluates one point's spec on the sttsimd behind c; the
// canonical result bytes decode into the same sim.Result an in-process run
// returns.
func remoteRun(c *api.Client, spec api.JobSpec) campaign.RunFunc {
	return func(ctx context.Context, _ sim.Config) (*sim.Result, error) {
		_, data, err := c.Run(ctx, spec)
		if err != nil {
			return nil, err
		}
		var res sim.Result
		if err := json.Unmarshal(data, &res); err != nil {
			return nil, fmt.Errorf("explore: decode remote result: %w", err)
		}
		return &res, nil
	}
}
