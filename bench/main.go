// Command bench is sttsim's benchmark: four named workloads, end-to-end
// metrics from an untraced pass, per-layer metrics from a separate traced
// pass, and a correctness gate on every output. Run it from the repository
// root with
//
//	bash bench/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-smoke]
//
// which builds this command and the sttsimd daemon first. Without -workload
// it runs every workload, each in a child process of its own, and writes
// bench/out/results.json. See bench/README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	_ "embed"
)

// workloads are the benchmark's workload names, in run order.
var workloads = []string{"run-wb-tpcc", "run-stt64-mcf", "sweep-short", "serve-mixed"}

// baselineJSON holds the expected result digest of each workload at seed 1
// and the recorded A/A sets.
//
//go:embed baseline.json
var baselineJSON []byte

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	smoke    bool
	out      string
	sttsimd  string
}

// duration is how long a workload's timed loop runs; a smoke run times a
// single iteration.
func (o options) duration() time.Duration {
	if o.smoke {
		return 0
	}
	return time.Duration(o.seconds * float64(time.Second))
}

func (o options) tracePath() string { return filepath.Join(o.out, o.workload+".trace.jsonl") }

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "run one workload in this process (empty: every workload, each in a child process)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of each workload's timed loop")
	flag.IntVar(&trace, "trace", 1, "1: add the traced pass and report per-layer metrics; 0: end-to-end metrics only")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny cycle windows, one iteration, one 40-submission round")
	flag.StringVar(&o.out, "out", "bench/out", "directory for reports and span files")
	flag.StringVar(&o.sttsimd, "sttsimd", ".bench_build/sttsimd", "sttsimd binary the serving layers are measured through")
	flag.Parse()
	if flag.NArg() > 0 || (trace != 0 && trace != 1) || o.seconds < 0 {
		flag.Usage()
		os.Exit(2)
	}
	o.trace = trace == 1
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if o.workload == "" {
		os.Exit(runAll(o, trace))
	}
	r, err := runWorkload(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	r.print(os.Stdout, o.trace)
	if r.Failed > 0 {
		os.Exit(1)
	}
}

// runWorkload measures one workload in this process and writes its report.
func runWorkload(o options) (*report, error) {
	r := newReport(o.workload, o.seed)
	var err error
	switch o.workload {
	case "serve-mixed":
		err = runServe(o, r)
	case "run-wb-tpcc", "run-stt64-mcf", "sweep-short":
		err = runSimWorkload(o, r)
	default:
		return nil, fmt.Errorf("unknown workload (want one of %v)", workloads)
	}
	if err != nil {
		return nil, err
	}
	r.normalize()
	if err := checkDigest(o, r); err != nil {
		return nil, err
	}
	data, _ := json.MarshalIndent(r, "", "  ")
	return r, os.WriteFile(filepath.Join(o.out, o.workload+".json"), append(data, '\n'), 0o644)
}

// checkDigest holds seed-1 results to the digests recorded in baseline.json.
// Other seeds print their digest for comparison across commits.
func checkDigest(o options, r *report) error {
	if o.seed != 1 || o.smoke {
		return nil
	}
	var base struct {
		ExpectedDigest map[string]string `json:"expected_digest"`
	}
	if err := json.Unmarshal(baselineJSON, &base); err != nil {
		return fmt.Errorf("baseline.json: %w", err)
	}
	r.Attempted++
	if want := base.ExpectedDigest[o.workload]; r.Digest != want {
		r.fail("digest %s, baseline.json expects %q at seed 1", r.Digest, want)
	}
	return nil
}

// runAll runs every workload in a child process, so heap and GC state never
// carry over between workloads, and merges their reports into results.json.
func runAll(o options, trace int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	all := map[string]*report{}
	failed := 0
	for _, w := range workloads {
		args := []string{"-workload", w, "-seed", strconv.FormatUint(o.seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-out", o.out, "-sttsimd", o.sttsimd,
			"-trace", strconv.Itoa(trace)}
		if o.smoke {
			args = append(args, "-smoke")
		}
		path := filepath.Join(o.out, w+".json")
		os.Remove(path)
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w, err)
			failed++
		}
		var r report
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &r)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s report: %v\n", w, err)
			failed++
			continue
		}
		all[w] = &r
	}
	data, _ := json.MarshalIndent(all, "", "  ")
	if err := os.WriteFile(filepath.Join(o.out, "results.json"), append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if failed > 0 {
		return 1
	}
	return 0
}
