#!/bin/sh
# horde-smoke: distributed fleet execution under real process loss, on
# both sides of the protocol.
#
#   1. start latserved -fleet (coordinator mode, 1s lease TTL) on a
#      scratch port, plus 4 latworkd worker processes sharing one
#      checkpoint cache directory
#   2. submit the default matrix via latctl
#   3. poll /v1/fleet until a worker holds 2 leases, then SIGKILL -9 it
#      mid-campaign — no drain, no goodbye, exactly what a crashed host
#      looks like to the coordinator — and assert via /metrics that the
#      loss was seen and handled (fleet_workers_expired >= 1,
#      fleet_cells_redispatched >= 1; asserted now, because the restart
#      below resets the metrics registry)
#   4. SIGKILL -9 the coordinator itself while leases are outstanding,
#      leave it dead long enough for the surviving workers' in-flight
#      cells to finish, checkpoint to the shared cache, and exhaust their
#      completion retries, then restart latserved on the same -cache
#   5. fetch the merged result — the restarted server re-admits the
#      campaign from its journal; nothing is re-submitted — and diff it
#      against the same campaign run by cmd/reproduce -encode in one
#      local process: byte-identity across worker loss AND coordinator
#      loss
#   6. assert the recovery actually exercised the durable paths:
#      server_campaigns_resumed >= 1 (journal replay) and
#      fleet_cells_cache_hit >= 1 (a re-dispatched cell answered from a
#      worker's checkpoint cache instead of re-simulating)
#
# Scratch state lives in results-horde-smoke/ (gitignored); it is removed
# on success and kept for post-mortem on failure.
set -eu

GO=${GO:-go}
DIR=results-horde-smoke
ADDR=127.0.0.1:8473
URL=http://$ADDR
SEED=3
# The re-dispatched cells must still be running when step 4 looks for
# outstanding leases to orphan, and it polls every 0.1 s. A cell of this
# length runs about 0.3 s alone on a 2-vCPU host; at 150 s it ran under
# 0.1 s, and step 4 often found the campaign already finished.
DURATION=600s
WORKERS=4
DOWNTIME=${DOWNTIME:-16}

rm -rf "$DIR"
mkdir -p "$DIR"

fail() {
    echo "horde-smoke: $*" >&2
    exit 1
}

SERVED_PID=
cleanup() {
    for i in $(seq 1 $WORKERS); do
        eval "pid=\${WORKER_PID_$i:-}"
        [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    done
    [ -n "$SERVED_PID" ] && kill "$SERVED_PID" 2>/dev/null || true
}
trap cleanup EXIT INT TERM

echo "== build"
$GO build -o "$DIR/latserved" ./cmd/latserved
$GO build -o "$DIR/latworkd" ./cmd/latworkd
$GO build -o "$DIR/latctl" ./cmd/latctl
$GO build -o "$DIR/reproduce" ./cmd/reproduce

metric() {
    # metric <name>: print the integer value of a counter from /metrics
    curl -sf "$URL/metrics" | sed -n "s/^.*\"$1\": \([0-9][0-9]*\).*$/\1/p" | head -1
}

start_served() {
    "$DIR/latserved" -addr "$ADDR" -cache "$DIR/cache" -jobs 8 \
        -fleet -lease-ttl 1s -poll 100ms 2>>"$DIR/latserved.log" &
    SERVED_PID=$!
    i=0
    until curl -sf "$URL/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        [ "$i" -gt 100 ] && fail "latserved did not come up (see $DIR/latserved.log)"
        sleep 0.1
    done
}

echo "== start coordinator + $WORKERS workers (shared checkpoint cache)"
start_served
for i in $(seq 1 $WORKERS); do
    "$DIR/latworkd" -coord "$URL" -name "horde-$i" -cells 2 \
        -cache "$DIR/wcache" 2>>"$DIR/latworkd-$i.log" &
    eval "WORKER_PID_$i=$!"
done

echo "== submit the campaign"
ID=$("$DIR/latctl" -server "$URL" submit -duration "$DURATION" -seed "$SEED" -runs 1)

echo "== wait for a worker to hold 2 leases, then SIGKILL it"
VICTIM=
i=0
while [ -z "$VICTIM" ]; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && fail "no worker ever held 2 leases (see $DIR/latserved.log)"
    VICTIM=$(curl -sf "$URL/v1/fleet" | tr '}' '\n' \
        | grep '"leases":2' | head -1 \
        | sed -n 's/.*"name":"\([^"]*\)".*/\1/p') || true
    [ -n "$VICTIM" ] || sleep 0.1
done
VICTIM_N=${VICTIM#horde-}
eval "VICTIM_PID=\$WORKER_PID_$VICTIM_N"
echo "   killing $VICTIM (pid $VICTIM_PID) with 2 leases outstanding"
kill -9 "$VICTIM_PID"
eval "WORKER_PID_$VICTIM_N="

echo "== worker loss visible in /metrics (before the restart resets them)"
i=0
while :; do
    EXPIRED=$(metric fleet_workers_expired)
    REDISPATCHED=$(metric fleet_cells_redispatched)
    [ "${EXPIRED:-0}" -ge 1 ] && [ "${REDISPATCHED:-0}" -ge 1 ] && break
    i=$((i + 1))
    [ "$i" -gt 100 ] && fail "worker loss never surfaced (expired='${EXPIRED:-}' redispatched='${REDISPATCHED:-}')"
    sleep 0.1
done
echo "   $EXPIRED worker expired, $REDISPATCHED cells re-dispatched"

echo "== SIGKILL the coordinator with leases outstanding"
i=0
while ! curl -sf "$URL/v1/fleet" | grep -q '"leases":[1-9]'; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && fail "no leases outstanding to orphan (campaign finished too fast?)"
    sleep 0.1
done
kill -9 "$SERVED_PID"
SERVED_PID=
echo "   coordinator dead; ${DOWNTIME}s of downtime while survivors finish," \
    "checkpoint, and exhaust completion retries"
sleep "$DOWNTIME"

echo "== restart the coordinator on the same cache + journal"
start_served

echo "== fetch the merged result (campaign resumed from the journal, not re-submitted)"
"$DIR/latctl" -server "$URL" result -o "$DIR/horde.json" "$ID"

echo "== run the same campaign locally via cmd/reproduce -encode"
"$DIR/reproduce" -duration "$DURATION" -seed "$SEED" -runs 1 -jobs 8 \
    -outdir "$DIR/repro" -encode "$DIR/local.json" >/dev/null

echo "== byte-identity: fleet-merged result vs single-process run"
cmp "$DIR/horde.json" "$DIR/local.json" || fail "fleet result differs from local reproduce run"

echo "== recovery visible in /metrics"
RESUMED=$(metric server_campaigns_resumed)
CACHEHIT=$(metric fleet_cells_cache_hit)
[ "${RESUMED:-0}" -ge 1 ] || fail "expected server_campaigns_resumed >= 1, got '${RESUMED:-}'"
[ "${CACHEHIT:-0}" -ge 1 ] || fail "expected fleet_cells_cache_hit >= 1, got '${CACHEHIT:-}'"
echo "   $RESUMED campaign resumed from the journal, $CACHEHIT cells answered from worker caches"

echo "horde-smoke: ok (fleet result byte-identical to local run despite worker AND coordinator SIGKILL mid-campaign)"
rm -rf "$DIR"
