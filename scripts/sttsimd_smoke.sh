#!/usr/bin/env bash
# sttsimd crash-recovery smoke test: kill -9 a coordinator mid-lease and
# require the write-ahead lease record plus -resume to carry the job across
# the crash. This is the one end-to-end scenario the Go functional suite
# (tests/functional, run via `make functional`) cannot express cleanly — an
# unclean SIGKILL with no shutdown path — so it stays a shell script. The
# standalone and distributed happy paths that used to live here are now
# black-box tests in tests/functional driven through the pkg/sttsim client.
set -euo pipefail

cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
addr="127.0.0.1:${STTSIMD_SMOKE_PORT:-18734}"
base="http://$addr"
pid=""
worker_pids=""
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    for wp in $worker_pids; do kill "$wp" 2>/dev/null || true; done
    rm -rf "$tmp"
}
trap cleanup EXIT

json_field() { # json_field <key> — first string value of "key" on stdin
    sed -n "s/.*\"$1\":\"\([^\"]*\)\".*/\1/p" | head -n1
}

wait_healthy() {
    for _ in $(seq 1 100); do
        if curl -sf "$base/v1/healthz/live" >/dev/null 2>&1; then return 0; fi
        sleep 0.1
    done
    echo "smoke: daemon never became healthy" >&2
    exit 1
}

stop_daemon() {
    kill -TERM "$pid"
    if ! wait "$pid"; then
        echo "smoke: daemon exited non-zero on SIGTERM" >&2
        exit 1
    fi
    pid=""
}

echo "smoke: build" >&2
go build -o "$tmp/sttsimd" ./cmd/sttsimd

# The write-ahead lease record plus -resume must carry a job across a
# coordinator that vanishes without any shutdown path running.

echo "smoke: start coordinator (-journal-sync always)" >&2
crash_spec='{"scheme":"stt4","bench":"milc","seed":13,"warmup_cycles":20000,"measure_cycles":400000}'
crash_journal="$tmp/journal-crash.jsonl"
"$tmp/sttsimd" -mode coordinator -addr "$addr" \
    -checkpoint "$crash_journal" -lease-timeout 5s -journal-sync always \
    >"$tmp/coordinator-crash.log" 2>&1 &
pid=$!
wait_healthy
for wid in w1 w2; do
    "$tmp/sttsimd" -mode worker -coordinator "$base" -worker-id "$wid" \
        -heartbeat-interval 500ms >"$tmp/$wid.log" 2>&1 &
    worker_pids="$worker_pids $!"
done
for _ in $(seq 1 100); do
    ready_code=$(curl -s -o /dev/null -w '%{http_code}' "$base/v1/healthz/ready")
    [ "$ready_code" = 200 ] && break
    sleep 0.1
done
[ "$ready_code" = 200 ] || { echo "smoke: coordinator never ready" >&2; exit 1; }

echo "smoke: submit long job, kill -9 once the lease record is durable" >&2
curl -sf -X POST -d "$crash_spec" "$base/v1/jobs" >/dev/null
leased=""
for _ in $(seq 1 100); do
    # The CRC prefix precedes the JSON on each line; grep still matches.
    if grep -q '"status":"leased"' "$crash_journal" 2>/dev/null; then leased=1; break; fi
    sleep 0.1
done
[ -n "$leased" ] || { echo "smoke: lease record never reached the journal" >&2; exit 1; }
kill -9 "$pid"
wait "$pid" 2>/dev/null || true
pid=""

echo "smoke: restart with -resume; the re-queued job must complete" >&2
"$tmp/sttsimd" -mode coordinator -addr "$addr" \
    -checkpoint "$crash_journal" -resume -lease-timeout 5s -journal-sync always \
    >"$tmp/coordinator-crash2.log" 2>&1 &
pid=$!
wait_healthy
grep -q 're-queued 1 leased' "$tmp/coordinator-crash2.log" || {
    echo "smoke: restarted coordinator did not re-queue the leased job" >&2
    cat "$tmp/coordinator-crash2.log" >&2
    exit 1
}
# Resubmitting the same spec joins the re-queued in-flight job.
id=$(curl -sf -X POST -d "$crash_spec" "$base/v1/jobs" | json_field id)
[ -n "$id" ] || { echo "smoke: resubmission returned no id" >&2; exit 1; }
for _ in $(seq 1 300); do
    state=$(curl -sf "$base/v1/jobs/$id" | json_field state)
    [ "$state" = done ] && break
    if [ "$state" = failed ] || [ "$state" = cancelled ]; then
        echo "smoke: job ended $state" >&2
        cat "$tmp/coordinator-crash2.log" "$tmp"/w[12].log >&2
        exit 1
    fi
    sleep 0.1
done
[ "$state" = done ] || {
    echo "smoke: job never finished after the restart" >&2
    cat "$tmp/coordinator-crash2.log" "$tmp"/w[12].log >&2
    exit 1
}

echo "smoke: identical resubmission after the crash is a cache hit" >&2
resp=$(curl -sf -X POST -d "$crash_spec" "$base/v1/jobs")
echo "$resp" | grep -q '"cache_hit":true' || {
    echo "smoke: post-crash resubmission was not a cache hit: $resp" >&2
    exit 1
}
ok_count=$(grep -c '"status":"ok"' "$crash_journal" || true)
[ "$ok_count" = 1 ] || {
    echo "smoke: crash journal has $ok_count terminal ok record(s), want exactly 1" >&2
    exit 1
}

echo "smoke: shutdown" >&2
for wp in $worker_pids; do kill -TERM "$wp"; done
for wp in $worker_pids; do
    if ! wait "$wp"; then
        echo "smoke: worker exited non-zero on SIGTERM" >&2
        cat "$tmp"/w[12].log >&2
        exit 1
    fi
done
worker_pids=""
stop_daemon

echo "smoke: OK" >&2
