package explore

import (
	"context"
	"reflect"
	"testing"

	api "sttsim/pkg/sttsim"
)

// fakeSpace builds a small pure-synthetic space; the fake BatchFunc never
// binds configs, so the base just has to validate.
func fakeSpace(t *testing.T, axisSizes ...int) *Space {
	t.Helper()
	base := api.JobSpec{Scheme: "wb", Bench: "case1", WarmupCycles: 100, MeasureCycles: 8000}
	axes := make([]Axis, len(axisSizes))
	names := []string{"alpha", "beta", "gamma"}
	for i, n := range axisSizes {
		vals := make([]string, n)
		for j := range vals {
			vals[j] = string(rune('a' + j))
		}
		axes[i] = Axis{
			Name:   names[i],
			Values: vals,
			set:    func(*api.JobSpec, string) {},
		}
	}
	s, err := NewSpace(base, axes...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// fakeBatch scores points synthetically (a stable function of the ID) and
// tallies the cycles spent, so strategy accounting is testable without a
// simulator.
type fakeBatch struct {
	calls       int
	totalCycles uint64
	perBudget   map[uint64]int // points evaluated at each budget
}

func (f *fakeBatch) fn(ctx context.Context, pts []Point, budget uint64) ([]*Evaluation, error) {
	if f.perBudget == nil {
		f.perBudget = make(map[uint64]int)
	}
	f.calls++
	out := make([]*Evaluation, len(pts))
	for i, p := range pts {
		f.totalCycles += budget
		f.perBudget[budget] += len(pts[i : i+1])
		// A stable synthetic score: hash of the ID.
		h := uint64(14695981039346656037)
		for _, c := range []byte(p.ID) {
			h = (h ^ uint64(c)) * 1099511628211
		}
		v := float64(h%1000) + 1
		out[i] = &Evaluation{
			ID: p.ID, Values: append([]string(nil), p.Values...), Cycles: budget,
			Objectives: Objectives{LatencyCycles: v, EnergyJ: v / 2, AreaMM2: 10},
		}
	}
	return out, nil
}

func TestGridEvaluatesEveryPointAtFullBudget(t *testing.T) {
	space := fakeSpace(t, 3, 2, 2) // 12 points
	var fb fakeBatch
	evals, err := Grid{}.Run(context.Background(), space, 8000, fb.fn)
	if err != nil {
		t.Fatal(err)
	}
	if len(evals) != 12 || fb.calls != 1 {
		t.Fatalf("grid: %d evals in %d calls, want 12 in 1", len(evals), fb.calls)
	}
	if fb.totalCycles != 12*8000 {
		t.Fatalf("grid spent %d cycles, want %d", fb.totalCycles, 12*8000)
	}
}

func TestRandomSampleIsSeededAndStable(t *testing.T) {
	space := fakeSpace(t, 4, 3) // 12 points
	run := func(seed uint64) []string {
		var fb fakeBatch
		evals, err := Random{Seed: seed, Samples: 5}.Run(context.Background(), space, 8000, fb.fn)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]string, len(evals))
		for i, e := range evals {
			ids[i] = e.ID
		}
		return ids
	}
	a, b := run(7), run(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed drew different samples:\n%v\n%v", a, b)
	}
	if len(a) != 5 {
		t.Fatalf("sample size %d, want 5", len(a))
	}
	c := run(8)
	if reflect.DeepEqual(a, c) {
		t.Fatalf("different seeds drew the identical sample %v", a)
	}
}

func TestSuccessiveHalvingPlan(t *testing.T) {
	s := SuccessiveHalving{Eta: 2, MinCycles: 1000}
	got := s.Plan(8000)
	want := []uint64{1000, 2000, 4000, 8000}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("plan = %v, want %v", got, want)
	}
	// A min that does not divide evenly still caps at the full budget.
	got = SuccessiveHalving{Eta: 3, MinCycles: 1000}.Plan(8000)
	want = []uint64{1000, 3000, 8000}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("eta=3 plan = %v, want %v", got, want)
	}
	// min >= full collapses to a single full-budget round.
	got = SuccessiveHalving{MinCycles: 9999}.Plan(8000)
	want = []uint64{8000}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("collapsed plan = %v, want %v", got, want)
	}
}

// TestSuccessiveHalvingBudgetAccounting pins the exact cycle spend of the
// n=8, eta=2 ladder and confirms it undercuts the grid's spend on the same
// space — the economy the strategy exists for.
func TestSuccessiveHalvingBudgetAccounting(t *testing.T) {
	space := fakeSpace(t, 2, 2, 2) // 8 points
	full := uint64(8000)
	var sh fakeBatch
	evals, err := SuccessiveHalving{Eta: 2, MinCycles: 1000}.Run(context.Background(), space, full, sh.fn)
	if err != nil {
		t.Fatal(err)
	}
	// Rounds: 8 pts @1000, 4 @2000, 2 @4000, 1 @8000.
	wantPer := map[uint64]int{1000: 8, 2000: 4, 4000: 2, 8000: 1}
	if !reflect.DeepEqual(sh.perBudget, wantPer) {
		t.Fatalf("per-budget counts = %v, want %v", sh.perBudget, wantPer)
	}
	wantTotal := uint64(8*1000 + 4*2000 + 2*4000 + 1*8000)
	if sh.totalCycles != wantTotal {
		t.Fatalf("SH spent %d cycles, want %d", sh.totalCycles, wantTotal)
	}
	if len(evals) != 1 {
		t.Fatalf("final round returned %d evals, want 1", len(evals))
	}
	if evals[0].Cycles != full {
		t.Fatalf("finalist ran at %d cycles, want full budget %d", evals[0].Cycles, full)
	}

	var grid fakeBatch
	if _, err := (Grid{}).Run(context.Background(), space, full, grid.fn); err != nil {
		t.Fatal(err)
	}
	if sh.totalCycles >= grid.totalCycles {
		t.Fatalf("SH spent %d cycles, grid %d — halving must be cheaper", sh.totalCycles, grid.totalCycles)
	}
}

func TestSuccessiveHalvingKeepsBestByScalarRank(t *testing.T) {
	space := fakeSpace(t, 2, 2, 2)
	pts, _ := space.Points()
	// Compute the synthetic winner the fake batch should graduate: the
	// minimum scalar, ties by ID.
	var fb fakeBatch
	all, err := fb.fn(context.Background(), pts, 1000)
	if err != nil {
		t.Fatal(err)
	}
	best := all[0]
	for _, e := range all[1:] {
		if e.Scalar() < best.Scalar() || (e.Scalar() == best.Scalar() && e.ID < best.ID) {
			best = e
		}
	}
	var sh fakeBatch
	evals, err := SuccessiveHalving{Eta: 2, MinCycles: 1000}.Run(context.Background(), space, 8000, sh.fn)
	if err != nil {
		t.Fatal(err)
	}
	if evals[0].ID != best.ID {
		t.Fatalf("finalist %s, want synthetic best %s", evals[0].ID, best.ID)
	}
}

func TestSuccessiveHalvingDropsFailedPoints(t *testing.T) {
	space := fakeSpace(t, 2, 2) // 4 points
	inner := &fakeBatch{}
	failID := ""
	batch := func(ctx context.Context, pts []Point, budget uint64) ([]*Evaluation, error) {
		out, err := inner.fn(ctx, pts, budget)
		if err != nil {
			return nil, err
		}
		if failID == "" {
			failID = pts[0].ID // fail the first point, every round
		}
		for i := range out {
			if out[i] != nil && out[i].ID == failID {
				out[i] = nil
			}
		}
		return out, nil
	}
	evals, err := SuccessiveHalving{Eta: 2, MinCycles: 2000}.Run(context.Background(), space, 8000, batch)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range evals {
		if e != nil && e.ID == failID {
			t.Fatalf("failed point %s graduated to the final round", failID)
		}
	}
}
