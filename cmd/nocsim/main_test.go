package main

import (
	"bytes"
	"errors"
	"flag"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"sttsim/internal/explore"
	"sttsim/internal/mem"
	"sttsim/internal/service"
	"sttsim/internal/sim"
	api "sttsim/pkg/sttsim"
)

// nocsimBin is the binary TestMain builds (empty in -short mode, where the
// binary tests skip).
var nocsimBin string

func TestMain(m *testing.M) {
	flag.Parse()
	if testing.Short() {
		os.Exit(m.Run())
	}
	dir, err := os.MkdirTemp("", "nocsim-test-")
	if err != nil {
		log.Fatalf("nocsim test: mktemp: %v", err)
	}
	nocsimBin = filepath.Join(dir, "nocsim")
	if out, err := exec.Command("go", "build", "-o", nocsimBin, ".").CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		log.Fatalf("nocsim test: build: %v\n%s", err, out)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// nocsim runs the built binary and returns its stdout, stderr and exit code.
func nocsim(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	if nocsimBin == "" {
		t.Skip("runs the nocsim binary")
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(nocsimBin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	switch {
	case errors.As(err, &ee):
		return stdout.String(), stderr.String(), ee.ExitCode()
	case err != nil:
		t.Fatal(err)
	}
	return stdout.String(), stderr.String(), 0
}

func TestExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		code int
		want string // expected in stdout (exit 3) or stderr
	}{
		{"unknown scheme", []string{"-scheme", "dram"}, 2, `unknown scheme "dram"`},
		{"unknown trace format", []string{"-trace-format", "xml"}, 2, `unknown -trace-format "xml"`},
		{"induced deadlock", []string{"-deadlock", "-warmup", "1000", "-measure", "8000"}, 3, "RUN FAILED"},
		// The victim bank comes from the run's topology, so a small mesh
		// deadlocks too instead of faulting a node it does not have.
		{"induced deadlock 4x4x2", []string{"-topo", "4x4x2", "-deadlock", "-warmup", "1000", "-measure", "8000"}, 3, "deadlock watchdog"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			stdout, stderr, code := nocsim(t, c.args...)
			if code != c.code {
				t.Fatalf("exit %d, want %d; stdout:\n%s\nstderr:\n%s", code, c.code, stdout, stderr)
			}
			if !strings.Contains(stdout+stderr, c.want) {
				t.Fatalf("output lacks %q; stdout:\n%s\nstderr:\n%s", c.want, stdout, stderr)
			}
		})
	}
}

// TestRecordReplayMatchesLive records every core's stream under an STT-RAM
// scheme, replays it, and requires the report a live run of the same spec
// prints (the trace name line aside).
func TestRecordReplayMatchesLive(t *testing.T) {
	dir := t.TempDir()
	spec := []string{"-scheme", "wb", "-bench", "sclust", "-warmup", "1500", "-measure", "4000"}
	if out, stderr, code := nocsim(t, append(spec, "-record", dir, "-record-n", "11020")...); code != 0 {
		t.Fatalf("record exited %d:\n%s%s", code, out, stderr)
	}
	live, stderr, code := nocsim(t, spec...)
	if code != 0 {
		t.Fatalf("live run exited %d:\n%s%s", code, live, stderr)
	}
	replay, stderr, code := nocsim(t, append(spec, "-replay", dir)...)
	if code != 0 {
		t.Fatalf("replay exited %d:\n%s%s", code, replay, stderr)
	}
	replay = regexp.MustCompile(`(?m)^replayed traces .*\n`).ReplaceAllString(replay, "")
	if replay != live {
		t.Fatalf("replay report differs from the live run:\n--- live\n%s--- replay\n%s", live, replay)
	}

	// The recording holds 64 cores; a 16x16 mesh has 256.
	_, stderr, code = nocsim(t, "-replay", dir, "-topo", "16x16x2", "-warmup", "10", "-measure", "10")
	if code != 2 || !strings.Contains(stderr, "holds 64 core traces") {
		t.Fatalf("replay onto a 256-core topology exited %d, want 2 with the core-count error; stderr:\n%s", code, stderr)
	}
}

// TestNamesRoundTrip: every scheme, by its short and its paper name in both
// cases, and every registered tech profile resolve to one fingerprint through
// nocsim's flags, an explore point and service.SpecConfig.
func TestNamesRoundTrip(t *testing.T) {
	if len(api.Schemes) != len(sim.AllSchemes()) {
		t.Fatalf("SDK lists %d schemes, the simulator %d", len(api.Schemes), len(sim.AllSchemes()))
	}
	for i, s := range sim.AllSchemes() {
		// The benchmark's sweeps iterate api.Schemes in the paper's order.
		if got, err := sim.ParseScheme(api.Schemes[i]); err != nil || got != s {
			t.Fatalf("api.Schemes[%d] = %q resolves to %v (%v), want %v", i, api.Schemes[i], got, err, s)
		}
		short := api.Schemes[i]
		names := []string{short, strings.ToUpper(short), s.String(), strings.ToLower(s.String())}
		for _, name := range names {
			for _, tech := range mem.ProfileNames() {
				want, err := service.SpecConfig(api.JobSpec{Scheme: name, Bench: "tpcc", TechProfile: tech})
				if err != nil {
					t.Fatalf("SpecConfig(%s, %s): %v", name, tech, err)
				}
				if want.Scheme != s || want.TechProfile != tech {
					t.Fatalf("SpecConfig(%s, %s) = %v/%s", name, tech, want.Scheme, want.TechProfile)
				}

				o, err := parseFlags([]string{"-scheme", name, "-tech", tech})
				if err != nil {
					t.Fatal(err)
				}
				cli, err := service.SpecConfig(o.spec)
				if err != nil {
					t.Fatalf("nocsim -scheme %s -tech %s: %v", name, tech, err)
				}

				schemeAxis, err := explore.SchemeAxis(name)
				if err != nil {
					t.Fatal(err)
				}
				techAxis, err := explore.TechAxis(tech)
				if err != nil {
					t.Fatal(err)
				}
				space, err := explore.NewSpace(api.JobSpec{Bench: "tpcc"}, schemeAxis, techAxis)
				if err != nil {
					t.Fatal(err)
				}
				pts, _ := space.Points()
				if len(pts) != 1 {
					t.Fatalf("explore %s/%s: %d valid points, want 1", name, tech, len(pts))
				}
				point, err := space.Config(pts[0])
				if err != nil {
					t.Fatal(err)
				}

				if cli.Fingerprint() != want.Fingerprint() || point.Fingerprint() != want.Fingerprint() {
					t.Fatalf("%s/%s: fingerprints differ: nocsim %s, explore %s, SpecConfig %s",
						name, tech, cli.Fingerprint(), point.Fingerprint(), want.Fingerprint())
				}
			}
		}
	}
}

// TestValidateAcceptsTableNames: the SDK's client-side check accepts a
// scheme name exactly when the simulator's name table does.
func TestValidateAcceptsTableNames(t *testing.T) {
	candidates := []string{"", "stt", "4tsb", "wb2", "stt-ram", "sram-64", "quantum"}
	for i, s := range sim.AllSchemes() {
		candidates = append(candidates, api.Schemes[i], strings.ToUpper(api.Schemes[i]),
			s.String(), strings.ToLower(s.String()))
	}
	for _, name := range candidates {
		spec := api.JobSpec{Scheme: name, Bench: "tpcc"}
		spec.SetDefaults()
		_, tableErr := sim.ParseScheme(name)
		if sdkErr := spec.Validate(); (sdkErr == nil) != (tableErr == nil) {
			t.Errorf("scheme %q: SDK Validate says %v, name table says %v", name, sdkErr, tableErr)
		}
	}
}
