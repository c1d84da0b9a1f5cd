#!/usr/bin/env bash
# bench_guard.sh — performance regression guard over the checked-in baseline
# (BENCH_baseline.json at the repo root). Seven benchmarks are gated:
#
#   BenchmarkTracingDisabled   the observability disabled path: a full
#                              simulator cycle with tracing compiled in but
#                              off must stay free (DESIGN.md §11)
#   BenchmarkSteadyStateCycle  the zero-allocation contract: a warmed WB
#                              simulator cycle must stay at 0 allocs/op
#                              (DESIGN.md §13)
#   BenchmarkNetworkTick       the router datapath alone: the 128-router
#                              network with 64 packets in a closed loop,
#                              no core or bank models, 0 allocs/op
#   BenchmarkBankController    one L2 bank controller alone, on a tag image:
#                              a closed loop of reads and writebacks that
#                              evicts and recalls, 0 allocs/op
#   BenchmarkFullRun/wb        end-to-end sim.Run wall clock and total
#                              allocation count for the heaviest scheme
#   BenchmarkNew/cold          construction alone (internal/sim) with an
#                              empty tag-image memo: the cost a process's
#                              first run of a topology, sharing mode and
#                              bank capacity pays (DESIGN.md §13)
#   BenchmarkNew/warm          construction alone on a tag-image memo hit,
#                              as every later run of that key
#
# Each benchmark is compared on two axes:
#
#  1. Allocation gate (always enforced, on every host): allocs/op and B/op
#     are deterministic — per cycle for the steady-state benches, per whole
#     run for FullRun — so they may exceed the baseline by at most 2% (B/op
#     also by BYTES_SLACK), regardless of machine noise. At a 0 allocs/op
#     baseline one new allocation fails. This is the gate CI relies on.
#  2. Wall-clock gate (enforced when measurable): min ns/op may not regress
#     more than TOLERANCE_PCT over the baseline. Wall-clock is only
#     trustworthy on a quiet machine, so the guard first measures its own
#     noise floor — the two halves of the sample set are compared A/A, and
#     when they disagree by more than the tolerance itself the wall-clock
#     verdict is skipped with a note. A host other than the one that
#     recorded the baseline also skips wall-clock (the allocation gate
#     still applies). An over-tolerance reading is re-measured up to twice
#     with all samples min-merged — slowness waves only inflate ns/op, so
#     the min across attempts converges on the true cost.
#
#   scripts/bench_guard.sh           # compare against BENCH_baseline.json
#   scripts/bench_guard.sh -update   # re-record the baseline on this host
#
# `make verify` runs this after the tests pass.
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE=BENCH_baseline.json
BENCHES=(BenchmarkTracingDisabled BenchmarkSteadyStateCycle BenchmarkNetworkTick BenchmarkBankController BenchmarkFullRun/wb BenchmarkNew/cold BenchmarkNew/warm)
COUNT=6
BENCHTIME=500ms
# Wall-clock gate: loose enough to ignore scheduler jitter on a busy host
# (noise arrives in waves slower than one benchmark invocation, which the
# A/A self-check below cannot see), tight enough to catch a structural
# hot-loop regression (the optimizations this guard protects are 2x+). The
# allocation gate is what is meant to be exact.
TOLERANCE_PCT=10
# B/op absolute slack: the cycle benchmarks amortize one-off warmup
# allocations over b.N, leaving a few residual bytes/op that jitter with the
# iteration count. Allocs/op has no such residue and is held exact.
BYTES_SLACK=64

host_key="$(uname -sm | tr ' ' '-')-$(nproc)c"

# One line per sample: "<benchmark> <ns/op> <B/op> <allocs/op>". Three
# invocations: a sub-benchmark pattern element (the /^wb$/) would filter out
# the leaf benchmarks, so they cannot share one -bench expression, and
# BenchmarkNew lives in internal/sim, next to the memo it clears.
run_bench() {
    {
        go test -run '^$' -bench '^(BenchmarkTracingDisabled|BenchmarkSteadyStateCycle|BenchmarkNetworkTick|BenchmarkBankController)$' \
            -benchmem -benchtime "$BENCHTIME" -count "$COUNT" .
        go test -run '^$' -bench '^BenchmarkFullRun$/^wb$' \
            -benchmem -benchtime "$BENCHTIME" -count "$COUNT" .
        go test -run '^$' -bench '^BenchmarkNew$' \
            -benchmem -benchtime "$BENCHTIME" -count "$COUNT" ./internal/sim
    } | awk -v procs="${GOMAXPROCS:-$(nproc)}" '$2 ~ /^[0-9]+$/ && $4 == "ns/op" {
            # Strip exactly the -GOMAXPROCS suffix (absent when procs is 1).
            name = $1
            if (procs > 1) sub("-" procs "$", "", name)
            print name, $3, $5, $7
        }'
}

# col_min <samples> <bench> <column (2=ns 3=B 4=allocs)>
col_min() {
    printf '%s\n' "$1" | awk -v b="$2" -v c="$3" '$1 == b {print $c}' | sort -n | head -1
}

samples="$(run_bench)"
for bench in "${BENCHES[@]}"; do
    n="$(printf '%s\n' "$samples" | awk -v b="$bench" '$1 == b' | wc -l)"
    if [[ "$n" -lt "$COUNT" ]]; then
        echo "bench_guard: expected $COUNT samples of ${bench}, got $n" >&2
        exit 1
    fi
done

if [[ "${1:-}" == "-update" ]]; then
    {
        printf '{\n  "host": "%s",\n  "benchmarks": [\n' "$host_key"
        sep=''
        for bench in "${BENCHES[@]}"; do
            printf '%s    {"name": "%s", "ns_per_op": %s, "bytes_per_op": %s, "allocs_per_op": %s}' \
                "$sep" "$bench" \
                "$(col_min "$samples" "$bench" 2)" \
                "$(col_min "$samples" "$bench" 3)" \
                "$(col_min "$samples" "$bench" 4)"
            sep=$',\n'
        done
        printf '\n  ]\n}\n'
    } > "$BASELINE"
    echo "bench_guard: baseline updated on ${host_key}:"
    for bench in "${BENCHES[@]}"; do
        echo "  ${bench}: $(col_min "$samples" "$bench" 2) ns/op, $(col_min "$samples" "$bench" 3) B/op, $(col_min "$samples" "$bench" 4) allocs/op"
    done
    exit 0
fi

if [[ ! -f "$BASELINE" ]]; then
    echo "bench_guard: no baseline at ${BASELINE}; record one with scripts/bench_guard.sh -update" >&2
    exit 0
fi

base_host="$(sed -n 's/.*"host": *"\([^"]*\)".*/\1/p' "$BASELINE")"
# base_field <bench> <field>
base_field() {
    sed -n "s|.*\"name\": *\"$1\", *\"ns_per_op\": *\([0-9.]*\), *\"bytes_per_op\": *\([0-9.]*\), *\"allocs_per_op\": *\([0-9.]*\).*|\\$2|p" "$BASELINE"
}

wallclock=1
if [[ "$base_host" != "$host_key" ]]; then
    echo "bench_guard: baseline recorded on ${base_host}, this host is ${host_key}; wall-clock gate skipped (allocation gate still applies)"
    wallclock=0
fi

# judge reads $samples and sets alloc_fail / wc_fail. Wall-clock verdicts
# use the min over ALL accumulated samples: host slowness only ever inflates
# ns/op, so min-merging samples from repeated attempts converges on the true
# value even when a slow wave spans a whole benchmark invocation (which the
# A/A split inside one invocation cannot see).
judge() {
alloc_fail=0
wc_fail=0
for bench in "${BENCHES[@]}"; do
    base_ns="$(base_field "$bench" 1)"
    base_bytes="$(base_field "$bench" 2)"
    base_allocs="$(base_field "$bench" 3)"
    # A benchmark absent from the baseline is a freshly added one, not a
    # regression: warn and skip so adding a benchmark doesn't break verify on
    # branches whose baseline predates it. It gets a row on the next -update.
    if [[ -z "$base_ns" || -z "$base_bytes" || -z "$base_allocs" ]]; then
        echo "bench_guard: WARN — ${bench} has no row in ${BASELINE} (new benchmark?); skipping, re-record with -update"
        continue
    fi
    ns="$(col_min "$samples" "$bench" 2)"
    bytes="$(col_min "$samples" "$bench" 3)"
    allocs="$(col_min "$samples" "$bench" 4)"

    # Allocation gate: allocs/op exact up to 2%, B/op additionally gets the
    # absolute residue slack.
    for gate in "allocs/op:$allocs:$base_allocs:0" "B/op:$bytes:$base_bytes:$BYTES_SLACK"; do
        IFS=: read -r label got base slack <<< "$gate"
        ok="$(awk -v g="$got" -v b="$base" -v s="$slack" \
            'BEGIN { print (g <= b * 1.02 + s + 0.5) ? 1 : 0 }')"
        if [[ "$ok" != 1 ]]; then
            echo "bench_guard: FAIL — ${bench} ${label} grew: ${got} vs baseline ${base}" >&2
            alloc_fail=1
        fi
    done

    if [[ "$wallclock" != 1 ]]; then
        echo "bench_guard: ${bench}: allocation gate clean (${allocs} allocs/op, ${bytes} B/op)"
        continue
    fi

    # Wall-clock gate, guarded by an A/A noise estimate over the sample halves.
    half=$(( $(printf '%s\n' "$samples" | awk -v b="$bench" '$1 == b' | wc -l) / 2 ))
    m1="$(printf '%s\n' "$samples" | awk -v b="$bench" '$1 == b {print $2}' | head -n "$half" | sort -n | head -1)"
    m2="$(printf '%s\n' "$samples" | awk -v b="$bench" '$1 == b {print $2}' | tail -n "$half" | sort -n | head -1)"
    noise="$(awk -v a="$m1" -v b="$m2" \
        'BEGIN { d = (a > b) ? a - b : b - a; m = (a < b) ? a : b; printf "%.2f", d * 100 / m }')"
    noisy="$(awk -v n="$noise" -v tol="$TOLERANCE_PCT" 'BEGIN { print (n > tol) ? 1 : 0 }')"
    pct="$(awk -v ns="$ns" -v base="$base_ns" 'BEGIN { printf "%+.2f", (ns/base - 1) * 100 }')"
    if [[ "$noisy" == 1 ]]; then
        echo "bench_guard: ${bench}: host too noisy to judge wall-clock (A/A split disagrees by ${noise}%); ns/op gate skipped (measured ${ns} vs baseline ${base_ns}, ${pct}%); allocation gate clean (${allocs} allocs/op)"
        continue
    fi
    ok="$(awk -v ns="$ns" -v base="$base_ns" -v tol="$TOLERANCE_PCT" \
        'BEGIN { print (ns <= base * (1 + tol/100)) ? 1 : 0 }')"
    if [[ "$ok" == 1 ]]; then
        echo "bench_guard: ${bench}: ${ns} ns/op vs baseline ${base_ns} (${pct}%), ${allocs} allocs/op — clean"
    else
        echo "bench_guard: FAIL — ${bench}: ${ns} ns/op vs baseline ${base_ns} ns/op (${pct}% > +${TOLERANCE_PCT}%)" >&2
        wc_fail=1
    fi
done
}

# Wall-clock failures get two retries with min-merged samples (see judge);
# allocation failures are deterministic and never retried.
MAX_TRIES=3
try=1
while :; do
    judge
    if [[ "$wc_fail" != 1 || "$try" -ge "$MAX_TRIES" ]]; then
        break
    fi
    try=$((try + 1))
    echo "bench_guard: wall-clock over tolerance; re-measuring (attempt ${try}/${MAX_TRIES}, min-merged)"
    sleep 5
    samples="$samples"$'\n'"$(run_bench)"
done

if [[ "$alloc_fail" == 1 || "$wc_fail" == 1 ]]; then
    echo "bench_guard: the hot loop must stay allocation-free and within ${TOLERANCE_PCT}% of baseline;" >&2
    echo "bench_guard: fix the regression, or re-baseline deliberately with: scripts/bench_guard.sh -update" >&2
    exit 1
fi
