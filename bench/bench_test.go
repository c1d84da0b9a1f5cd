package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSmokeMetricSets runs every workload at smoke size, traced, and holds
// the metrics it emits, with their units, to the sets BENCHMARK.json lists.
func TestSmokeMetricSets(t *testing.T) {
	if testing.Short() {
		t.Skip("builds sttsimd and runs every workload")
	}
	b := readBenchmarkFile(t)
	want := map[string]string{}
	for _, m := range b.EndToEnd {
		want[m.Name] = m.Unit
		if !endToEnd[m.Name] {
			t.Errorf("BENCHMARK.json end-to-end metric %s is not end-to-end in the bench", m.Name)
		}
	}
	for _, m := range b.PerLayer {
		want[m.Name] = m.Unit
	}
	if len(want) != len(b.EndToEnd)+len(b.PerLayer) {
		t.Errorf("BENCHMARK.json lists a metric twice")
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, bench runs %v", names, workloads)
	}

	dir := t.TempDir()
	daemon := filepath.Join(dir, "sttsimd")
	if out, err := exec.Command("go", "build", "-o", daemon, "sttsim/cmd/sttsimd").CombinedOutput(); err != nil {
		t.Fatalf("build sttsimd: %v\n%s", err, out)
	}
	for _, w := range workloads {
		r, err := runWorkload(options{workload: w, seed: 3, trace: true, smoke: true, out: dir, sttsimd: daemon})
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if r.Failed > 0 || r.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", w, r.Failed, r.Attempted, r.Failures)
		}
		for name, m := range r.Metrics {
			if !metricName.MatchString(name) {
				t.Errorf("%s: metric name %q", w, name)
			}
			if unit, ok := want[name]; !ok {
				t.Errorf("%s emits %s, which BENCHMARK.json does not list", w, name)
			} else if unit != m.Unit {
				t.Errorf("%s: %s in %s, BENCHMARK.json says %s", w, name, m.Unit, unit)
			}
		}
		for name := range want {
			if _, ok := r.Metrics[name]; !ok {
				t.Errorf("%s does not emit %s", w, name)
			}
		}
		if fi, err := os.Stat(filepath.Join(dir, w+".trace.jsonl")); err != nil || fi.Size() == 0 {
			t.Errorf("%s: no spans written (%v)", w, err)
		}
	}
}

// TestTailQuantile pins the percentile rule: the highest quantile up to the
// one asked for with at least ten samples beyond it, never below the median.
func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n         int
		want, got float64
	}{
		{0, 0.95, 0.5},
		{15, 0.95, 0.5},
		{20, 0.95, 0.5},
		{40, 0.95, 0.75},
		{100, 0.95, 0.9},
		{200, 0.95, 0.95},
		{500, 0.99, 0.98},
		{20000, 0.99, 0.99},
	} {
		q := tailQuantile(c.n, c.want)
		if math.Abs(q-c.got) > 1e-12 {
			t.Errorf("tailQuantile(%d, %g) = %g, want %g", c.n, c.want, q, c.got)
		}
		if c.n >= 20 && float64(c.n)*(1-q) < 10-1e-9 {
			t.Errorf("tailQuantile(%d, %g) = %g leaves fewer than 10 samples beyond", c.n, c.want, q)
		}
	}
}

// TestSelfTimes checks the span arithmetic: a span's self time is its
// duration minus the union of its children's intervals, clipped to it.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "job", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the parent
		{ID: 5, Parent: 3, Name: "d", Start: 25, End: 35},
		{ID: 6, Name: "other", Start: 5, End: 6},
	}
	got := selfTimes(spans)
	want := []int64{100 - 40 - 10, 20, 30 - 10, 30, 10, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %s: self %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	st := statsOf(spans)
	if len(st["job"]) != 1 || math.Abs(st["job"][0]-50e-9) > 1e-15 {
		t.Errorf("statsOf job = %v, want [5e-08]", st["job"])
	}
}

// TestRoundPlan checks the serving mix: the same composition every round,
// every duplicate after a unique it repeats, and the same plan for the same
// seed.
func TestRoundPlan(t *testing.T) {
	for round := 0; round < 20; round++ {
		plan := roundPlan(7, round, false)
		seen := map[string]bool{}
		count := map[int]int{}
		for i, sub := range plan {
			count[sub.kind]++
			key := specKey(sub.spec)
			switch sub.kind {
			case kindUnique:
				if seen[key] {
					t.Fatalf("round %d: unique %d repeats an earlier spec", round, i)
				}
				seen[key] = true
			case kindDup:
				if !seen[key] {
					t.Fatalf("round %d: duplicate %d has no earlier unique", round, i)
				}
			}
		}
		if count[kindUnique] != 18 || count[kindDup] != 20 || count[kindInvalid] != 2 {
			t.Fatalf("round %d: composition %v", round, count)
		}
		again := roundPlan(7, round, false)
		for i := range plan {
			if specKey(plan[i].spec) != specKey(again[i].spec) {
				t.Fatalf("round %d: plan differs on replay at %d", round, i)
			}
		}
	}
}
