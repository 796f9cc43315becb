#!/bin/sh
# serve-smoke: end-to-end exercise of the campaign service binaries.
#
#   1. start latserved on a scratch port with a scratch cache dir
#   2. submit the default 5s matrix via latctl and fetch its result
#   3. diff those bytes against the same campaign run locally by
#      cmd/reproduce -encode (the byte-identity guarantee)
#   4. resubmit: assert the in-memory dedup joined the existing job
#   5. restart latserved on the same cache dir, resubmit, and assert via
#      /metrics that the result was served entirely from the
#      content-addressed cache (zero cells executed, all checkpoint hits),
#      and that the journal stayed empty: a campaign whose every cell is
#      stored is answered at admission and never journaled
#   6. run an adaptive (-precision) campaign through latctl submit and
#      latctl local, and cmp both against cmd/reproduce -encode
#
# Scratch state lives in results-serve-smoke/ (gitignored); it is removed
# on success and kept for post-mortem on failure.
set -eu

GO=${GO:-go}
DIR=results-serve-smoke
ADDR=127.0.0.1:8471
URL=http://$ADDR
SEED=3
DURATION=5s

rm -rf "$DIR"
mkdir -p "$DIR"

fail() {
    echo "serve-smoke: $*" >&2
    exit 1
}

SERVED_PID=
cleanup() {
    [ -n "$SERVED_PID" ] && kill "$SERVED_PID" 2>/dev/null || true
}
trap cleanup EXIT INT TERM

echo "== build"
$GO build -o "$DIR/latserved" ./cmd/latserved
$GO build -o "$DIR/latctl" ./cmd/latctl
$GO build -o "$DIR/reproduce" ./cmd/reproduce

start_served() {
    "$DIR/latserved" -addr "$ADDR" -cache "$DIR/cache" -jobs 4 2>>"$DIR/latserved.log" &
    SERVED_PID=$!
    i=0
    until curl -sf "$URL/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        [ "$i" -gt 100 ] && fail "latserved did not come up (see $DIR/latserved.log)"
        sleep 0.1
    done
}

metric() {
    # metric <name>: print the integer value of a counter from /metrics
    curl -sf "$URL/metrics" | sed -n "s/^.*\"$1\": \([0-9][0-9]*\).*$/\1/p" | head -1
}

echo "== start latserved"
start_served

echo "== submit via latctl and fetch the result"
ID=$("$DIR/latctl" -server "$URL" submit -duration "$DURATION" -seed "$SEED" -runs 1)
"$DIR/latctl" -server "$URL" result -o "$DIR/server.json" "$ID"

echo "== run the same campaign locally via cmd/reproduce -encode"
"$DIR/reproduce" -duration "$DURATION" -seed "$SEED" -runs 1 -jobs 4 \
    -outdir "$DIR/repro" -encode "$DIR/local.json" >/dev/null

echo "== byte-identity: server result vs local reproduce"
cmp "$DIR/server.json" "$DIR/local.json" || fail "server result differs from local reproduce run"

echo "== resubmit: in-flight/completed dedup"
ID2=$("$DIR/latctl" -server "$URL" submit -duration "$DURATION" -seed "$SEED" -runs 1)
[ "$ID2" = "$ID" ] || fail "identical campaign got a different id ($ID2 vs $ID)"
DEDUP=$(metric server_campaigns_deduped)
[ "${DEDUP:-0}" -ge 1 ] || fail "expected server_campaigns_deduped >= 1, got '${DEDUP:-}'"

echo "== restart latserved on the same cache: warm-cache byte identity"
kill "$SERVED_PID"
wait "$SERVED_PID" 2>/dev/null || true
SERVED_PID=
start_served
"$DIR/latctl" -server "$URL" result -o "$DIR/server-warm.json" \
    "$("$DIR/latctl" -server "$URL" submit -duration "$DURATION" -seed "$SEED" -runs 1)"
cmp "$DIR/server-warm.json" "$DIR/local.json" || fail "warm-cache result differs from local run"
EXEC=$(metric server_cells_executed)
HITS=$(metric campaign_checkpoint_hits)
[ "${EXEC:-1}" -eq 0 ] || fail "warm cache executed $EXEC cells, want 0"
[ "${HITS:-0}" -ge 1 ] || fail "warm cache shows no checkpoint hits"
echo "   warm cache: 0 cells executed, $HITS checkpoint hits"
[ ! -s "$DIR/cache/latserved.journal" ] ||
    fail "warm-cache campaign was journaled; it should be answered at admission"

echo "== adaptive campaign: latctl submit and latctl local vs reproduce -encode"
# ADAPTIVE is a flag list, expanded unquoted so it splits into words.
ADAPTIVE="-precision 0.2 -max-runs 12 -duration $DURATION -seed $SEED"
"$DIR/latctl" -server "$URL" result -o "$DIR/server-adaptive.json" \
    "$("$DIR/latctl" -server "$URL" submit $ADAPTIVE)"
"$DIR/latctl" local $ADAPTIVE -jobs 4 -o "$DIR/local-adaptive.json"
"$DIR/reproduce" $ADAPTIVE -jobs 4 -outdir "$DIR/repro-adaptive" \
    -encode "$DIR/reproduce-adaptive.json" >/dev/null
cmp "$DIR/server-adaptive.json" "$DIR/reproduce-adaptive.json" ||
    fail "adaptive server result differs from reproduce -encode"
cmp "$DIR/local-adaptive.json" "$DIR/reproduce-adaptive.json" ||
    fail "adaptive latctl local result differs from reproduce -encode"

kill "$SERVED_PID"
wait "$SERVED_PID" 2>/dev/null || true
SERVED_PID=

echo "serve-smoke: ok (server result byte-identical to local run, cold, warm and adaptive)"
rm -rf "$DIR"
