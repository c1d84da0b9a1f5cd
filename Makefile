# Tier-1 verification for sttsim. `make verify` is the gate every change must
# pass: build, vet (with a gofmt check), unit tests, the race detector over
# the race-prone packages (the full-system sim/exp tests are heavy under
# -race, so the race pass covers the substrate packages where concurrency
# could plausibly enter), the golden trace digests, and the performance
# guard.

GO ?= go

.PHONY: all build vet test race bench-guard golden verify profile smoke serve-smoke explore-smoke functional loadtest dist-chaos chaos-sched

all: verify

build:
	$(GO) build ./...

# vet also fails when gofmt would reformat any tracked Go file, and when git
# or gofmt cannot run, so a missing tool never passes the check.
vet:
	$(GO) vet ./...
	@files=$$(git ls-files '*.go') && [ -n "$$files" ] || { echo "vet: cannot list tracked Go files" >&2; exit 1; }; \
	unformatted=$$(gofmt -l $$files) || { echo "vet: gofmt failed" >&2; exit 1; }; \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:" >&2; echo "$$unformatted" >&2; exit 1; fi

test:
	$(GO) test ./...

# The simulator is single-threaded by design; -race still catches accidental
# goroutine introduction and unsynchronized test helpers. Short mode keeps the
# heavy full-system sweeps out of the race pass.
race:
	$(GO) test -race -short ./...

# Performance guardrail over BENCH_baseline.json: the disabled-observability
# path and the warmed steady-state cycle must stay at 0 allocs/op, the
# end-to-end per-scheme run must not grow its allocation count, and ns/op
# must stay within tolerance (the wall-clock verdict self-skips when the
# host is too noisy to judge, and on hosts other than the one that recorded
# the baseline; the allocation gates always apply). Re-baseline with
# scripts/bench_guard.sh -update.
bench-guard:
	./scripts/bench_guard.sh

# Golden-trace determinism regression: per-scheme binary traces must stay
# byte-identical (digest match against internal/sim/testdata/), including
# across concurrent replicas under the race detector. `make test` checks the
# same digests without -race. Re-baseline after a deliberate timing change
# with: go test -run TestGolden ./internal/sim -update
golden:
	$(GO) test -run TestGolden -race ./internal/sim

verify: build vet test race golden bench-guard explore-smoke

# Exploration resume round trip: a tiny grid search is interrupted
# mid-flight, resumed from its campaign journal, and must re-execute zero
# already-journaled points while producing a Pareto frontier byte-identical
# to an uninterrupted reference run.
explore-smoke:
	./scripts/explore_smoke.sh

# CPU and heap profile of the steady-state cycle loop (writes cpu.out /
# mem.out at the repo root and prints the hottest functions). Inspect
# interactively with: go tool pprof cpu.out
profile:
	$(GO) test -run '^$$' -bench '^BenchmarkSteadyStateCycle$$' -benchtime 3s \
		-cpuprofile cpu.out -memprofile mem.out .
	$(GO) tool pprof -top -nodecount 15 cpu.out

# Checkpoint round trip: interrupt a campaign mid-flight, resume it from the
# journal, require byte-identical output to an uninterrupted reference run.
smoke:
	./scripts/checkpoint_smoke.sh

# Daemon crash recovery: kill -9 a coordinator mid-lease and require the
# write-ahead lease record plus -resume to carry the job across the crash.
# (The standalone/distributed happy paths this script used to cover are now
# the functional suite below.)
serve-smoke:
	./scripts/sttsimd_smoke.sh

# Black-box functional suite: boots real sttsimd processes (standalone and
# coordinator+workers) on ephemeral ports and drives them end-to-end through
# the pkg/sttsim client SDK — lifecycle, cache identity, cancel, journal
# warm restart, SSE resume accounting, and the typed error surface.
functional:
	$(GO) test -race ./tests/functional

# Serving SLO gate: cmd/loadgen fires a mixed unique/duplicate/invalid
# workload at a self-hosted daemon and asserts submit/e2e p99, cache hit
# ratio, error budget, and the dedup invariant; throughput is compared to
# BENCH_serving.json on the matching host. LOADGEN_N overrides the
# submission count; re-baseline with scripts/serving_guard.sh -update.
loadtest:
	./scripts/serving_guard.sh

# Distributed-serving chaos gate: the dist package under -race including the
# process-level kill test — a real coordinator with three workers, the lease
# holder SIGKILLed mid-job, the job re-leased to a survivor, and the client's
# result bytes identical to a standalone reference. (The `race` target skips
# the chaos test via -short; this runs it.)
dist-chaos:
	$(GO) test -race -v ./internal/dist

# Seeded chaos schedules: CHAOS_SCHED randomized fault plans (disk faults on
# the coordinator's journal, network faults between it and two workers, full
# connection severs), each asserting exactly-one terminal record per config,
# byte-identical results, no leaked leases, and monotonic lease epochs. Any
# failure names its seed; replay exactly one schedule with
# CHAOS_SEED=<seed> go test -race -run TestChaosSchedules ./internal/failpoint
chaos-sched:
	CHAOS_SCHED=$(or $(CHAOS_SCHED),200) $(GO) test -race -run TestChaosSchedules -v ./internal/failpoint
