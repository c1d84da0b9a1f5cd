package sim

// Golden-trace determinism harness. It runs with the rest of the package
// under `go test ./...`; `make golden` and CI's golden job also run it under
// the race detector:
//
//	go test -run TestGolden -race ./internal/sim
//	go test -run TestGolden ./internal/sim -update   # re-baseline
//
// For each scheme family a short traced run is reduced to the SHA-256 of its
// complete binary trace — every event, every field, in emission order — and
// compared against a checked-in digest in testdata/. Any change to packet
// timing, arbitration order, bank scheduling or the trace encoding itself
// flips the digest, so this is a whole-simulator determinism regression net.
// Full traces are not checked in (~300 KiB each); on mismatch the offending
// trace is written to a temp file for offline diffing with cmd/nocsim
// -decompose or obs.ReadTrace.
//
// Each digest is computed several times concurrently before the golden
// comparison, so the same test run under -race also proves traces are
// byte-identical across goroutine interleavings (the campaign engine's -jobs
// levels share no state between runs, but this pins it).

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"sttsim/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden trace digests in testdata/")

// goldenCase pins one scheme family to a fixed short workload window.
type goldenCase struct {
	name  string
	cfg   func() Config
	bench string
}

func goldenCases() []goldenCase {
	mk := func(s Scheme, bench string) func() Config {
		return func() Config {
			cfg := quickCfg(s, bench)
			cfg.WarmupCycles = 200
			cfg.MeasureCycles = 800
			return cfg
		}
	}
	return []goldenCase{
		{name: "sram", cfg: mk(SchemeSRAM64TSB, "tpcc")},
		{name: "stt64", cfg: mk(SchemeSTT64TSB, "tpcc")},
		{name: "stt4", cfg: mk(SchemeSTT4TSB, "tpcc")},
		{name: "ss", cfg: mk(SchemeSTT4TSBSS, "tpcc")},
		{name: "rca", cfg: mk(SchemeSTT4TSBRCA, "tpcc")},
		{name: "wb", cfg: mk(SchemeSTT4TSBWB, "tpcc")},
	}
}

// traceRun executes one traced run and returns the raw binary trace bytes.
func traceRun(t *testing.T, cfg Config) []byte {
	t.Helper()
	var buf bytes.Buffer
	sink := obs.NewBinarySink(&buf)
	cfg.Obs = &ObsConfig{Sink: sink}
	if _, err := Run(cfg); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := sink.Close(); err != nil {
		t.Fatalf("sink close: %v", err)
	}
	return buf.Bytes()
}

func digestLine(trace []byte) string {
	sum := sha256.Sum256(trace)
	return fmt.Sprintf("sha256=%s bytes=%d\n", hex.EncodeToString(sum[:]), len(trace))
}

func TestGoldenTraces(t *testing.T) {
	for _, gc := range goldenCases() {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			t.Parallel()

			// Three concurrent runs of the identical config: the trace must be
			// byte-identical regardless of scheduling (and -race watches the
			// simulator for shared-state leaks between concurrent runs).
			const replicas = 3
			traces := make([][]byte, replicas)
			done := make(chan int, replicas)
			for i := 0; i < replicas; i++ {
				go func(i int) {
					defer func() { done <- i }()
					traces[i] = traceRun(t, gc.cfg())
				}(i)
			}
			for i := 0; i < replicas; i++ {
				<-done
			}
			for i := 1; i < replicas; i++ {
				if !bytes.Equal(traces[0], traces[i]) {
					t.Fatalf("concurrent replicas of the same config produced different traces (run 0: %d bytes, run %d: %d bytes)",
						len(traces[0]), i, len(traces[i]))
				}
			}

			// Sanity: the trace must decode cleanly and be non-trivial.
			evs, err := obs.DecodeBinary(bytes.NewReader(traces[0]))
			if err != nil {
				t.Fatalf("golden trace does not decode: %v", err)
			}
			if len(evs) < 100 {
				t.Fatalf("golden trace suspiciously small: %d events", len(evs))
			}

			got := digestLine(traces[0])
			path := filepath.Join("testdata", "golden_"+gc.name+".digest")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("updated %s: %s", path, got)
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("no golden digest (run with -update to baseline): %v", err)
			}
			if got != string(want) {
				dump := filepath.Join(t.TempDir(), gc.name+".trace")
				_ = os.WriteFile(dump, traces[0], 0o644)
				t.Errorf("trace digest changed:\n  got  %s  want %s  divergent trace dumped to %s (inspect with obs.ReadTrace / nocsim -decompose)",
					got, want, dump)
			}
		})
	}
}
