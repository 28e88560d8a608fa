#!/bin/sh
# serve_smoke.sh — CI smoke test for the experiment API server (make serve-smoke).
#
# Boots `capsim -serve-api` on an ephemeral port and proves the service
# contract end to end:
#
#   1. POST /v1/run for a small fig10 renders byte-identical to the CLI
#      (`capsim -experiment fig10` with the same budgets) — the tentpole
#      acceptance criterion.
#   2. A second identical POST is served from the response cache.
#   3. With one run slot (-api-inflight 1, no queue wait), a request that
#      arrives while a slow run is in flight is rejected with 429.
#   4. Cancelling the slow request (client disconnect) stops its sweep
#      early: the run slot frees long before the run's full budget could
#      have completed.
#   5. A `stream: true` POST yields valid NDJSON — a ledger header line
#      first, a terminal "result" line last — and the result's render is
#      byte-identical to the CLI's.
#   6. Disconnecting a streamed run mid-feed cancels it: in_flight returns
#      to zero, same contract as the buffered path.
#   7. SIGTERM drains gracefully: the process exits 0 and confirms the
#      drain. (Drain-cancels-in-flight-runs is locked by the package's
#      TestDrain; here the smoke proves the process-level signal path.)
#
# Requires: go, curl, jq. Uses no fixed ports and writes only under /tmp.
set -eu

GO=${GO:-go}
TMP=/tmp/capsim_serve_smoke
rm -rf "$TMP"
mkdir -p "$TMP"
BIN="$TMP/capsim"
LOG="$TMP/server.log"

SRV_PID=""
cleanup() {
    [ -n "$SRV_PID" ] && kill -9 "$SRV_PID" 2>/dev/null || true
}
trap cleanup EXIT INT TERM

fail() {
    echo "serve-smoke FAIL: $*" >&2
    [ -f "$LOG" ] && { echo "--- server log ---" >&2; cat "$LOG" >&2; }
    exit 1
}

# wait_until SECONDS CMD... — poll CMD until it succeeds or SECONDS of wall
# time elapse (returns 1). A wall-clock deadline, not a fixed iteration
# count: each probe's own cost (curl on a loaded box) eats into the budget
# instead of silently stretching it.
wait_until() {
    deadline=$(( $(date +%s) + $1 ))
    shift
    while :; do
        "$@" && return 0
        [ "$(date +%s)" -ge "$deadline" ] && return 1
        sleep 0.1
    done
}

$GO build -o "$BIN" ./cmd/capsim

# --- reference render via the CLI -----------------------------------------
# The CLI prints Render() followed by a timing footer and a blank line; the
# footer is the only line stripped (same idiom as bench-obs-smoke).
"$BIN" -experiment fig10 -parallel 2 -queue-instrs 3000 \
    | grep -v '^(fig10 in ' > "$TMP/cli.txt"

# --- boot the server on an ephemeral port ---------------------------------
"$BIN" -serve-api 127.0.0.1:0 -api-inflight 1 -api-queue-wait -1s \
    -drain-grace 2s 2> "$LOG" &
SRV_PID=$!

BASE=""
server_bound() {
    kill -0 "$SRV_PID" 2>/dev/null || fail "server exited before binding"
    BASE=$(sed -n 's/.*experiment API on \(http:\/\/[0-9.:]*\).*/\1/p' "$LOG" | head -n1)
    [ -n "$BASE" ]
}
wait_until 10 server_bound || fail "server never reported its address"

# --- 1. byte-identical render ---------------------------------------------
code=$(curl -s -o "$TMP/run1.json" -w '%{http_code}' \
    -X POST "$BASE/v1/run" -H 'Content-Type: application/json' \
    -d '{"experiment":"fig10","parallel":2,"queue_instrs":3000}')
[ "$code" = "200" ] || fail "POST /v1/run returned $code: $(cat "$TMP/run1.json")"
jq -r '.render' "$TMP/run1.json" > "$TMP/api.txt"
cmp -s "$TMP/cli.txt" "$TMP/api.txt" || {
    diff "$TMP/cli.txt" "$TMP/api.txt" >&2 || true
    fail "API render differs from CLI render"
}
[ "$(jq -r '.cached' "$TMP/run1.json")" = "false" ] || fail "first run claims cached"

# --- 2. cache hit ----------------------------------------------------------
code=$(curl -s -o "$TMP/run2.json" -w '%{http_code}' \
    -X POST "$BASE/v1/run" -H 'Content-Type: application/json' \
    -d '{"experiment":"fig10","parallel":2,"queue_instrs":3000}')
[ "$code" = "200" ] || fail "cached POST returned $code"
[ "$(jq -r '.cached' "$TMP/run2.json")" = "true" ] || fail "second run not cached"
jq -r '.render' "$TMP/run2.json" > "$TMP/api2.txt"
cmp -s "$TMP/cli.txt" "$TMP/api2.txt" || fail "cached render differs from CLI render"

# --- 3. admission control: 429 while the one slot is busy ------------------
# A deliberately slow run (large serial budget, uncached key) occupies the
# single slot; /healthz confirms admission before the probe is sent.
curl -s -o "$TMP/slow.json" -X POST "$BASE/v1/run" \
    -H 'Content-Type: application/json' \
    -d '{"experiment":"fig10","seed":7,"parallel":1,"queue_instrs":1000000,"no_cache":true}' &
SLOW_CURL=$!

in_flight_is() {
    inflight=$(curl -s "$BASE/healthz" | jq -r '.in_flight' 2>/dev/null || echo "")
    [ "$inflight" = "$1" ]
}
wait_until 10 in_flight_is 1 || fail "slow run never occupied the run slot"

code=$(curl -s -o "$TMP/busy.json" -w '%{http_code}' \
    -X POST "$BASE/v1/run" -H 'Content-Type: application/json' \
    -d '{"experiment":"fig10","seed":8,"queue_instrs":3000,"no_cache":true}')
[ "$code" = "429" ] || fail "expected 429 while slot busy, got $code: $(cat "$TMP/busy.json")"

# --- 4. client disconnect cancels the sweep --------------------------------
# Killing the client cancels the request context; the sweep stops claiming
# simulation jobs and the run slot frees after at most the one in-flight
# job — far sooner than the run's full budget (~20s serial) could finish.
kill "$SLOW_CURL" 2>/dev/null || true
wait "$SLOW_CURL" 2>/dev/null || true
wait_until 10 in_flight_is 0 || fail "cancelled request did not release its run slot (sweep kept running)"

# --- 5. streamed run: valid NDJSON, final render byte-identical -------------
code=$(curl -s -N -o "$TMP/stream.ndjson" -w '%{http_code}' \
    -X POST "$BASE/v1/run" -H 'Content-Type: application/json' \
    -d '{"experiment":"fig10","parallel":2,"queue_instrs":3000,"stream":true}')
[ "$code" = "200" ] || fail "streamed POST returned $code: $(cat "$TMP/stream.ndjson")"
jq -c . < "$TMP/stream.ndjson" > /dev/null 2>&1 || fail "stream is not valid NDJSON"
[ "$(head -n1 "$TMP/stream.ndjson" | jq -r '.t')" = "ledger" ] \
    || fail "stream does not open with the ledger header line"
[ "$(tail -n1 "$TMP/stream.ndjson" | jq -r '.t')" = "result" ] \
    || fail "stream does not end with a result line: $(tail -n1 "$TMP/stream.ndjson")"
tail -n1 "$TMP/stream.ndjson" | jq -r '.response.render' > "$TMP/stream_render.txt"
cmp -s "$TMP/cli.txt" "$TMP/stream_render.txt" || {
    diff "$TMP/cli.txt" "$TMP/stream_render.txt" >&2 || true
    fail "streamed result render differs from CLI render"
}
[ "$(tail -n1 "$TMP/stream.ndjson" | jq -r '.response.cached')" = "false" ] \
    || fail "streamed run claims cached (streams must bypass the response cache)"

# --- 6. mid-stream disconnect frees the run slot ----------------------------
curl -s -N -o "$TMP/stream_slow.ndjson" -X POST "$BASE/v1/run" \
    -H 'Content-Type: application/json' \
    -d '{"experiment":"fig10","seed":9,"parallel":1,"queue_instrs":1000000,"stream":true}' &
STREAM_CURL=$!
wait_until 10 in_flight_is 1 || fail "streamed slow run never occupied the run slot"
kill "$STREAM_CURL" 2>/dev/null || true
wait "$STREAM_CURL" 2>/dev/null || true
wait_until 10 in_flight_is 0 || fail "disconnected stream did not release its run slot"

# --- 7. graceful drain on SIGTERM ------------------------------------------
kill -TERM "$SRV_PID"
if wait "$SRV_PID"; then :; else fail "server exited non-zero after SIGTERM"; fi
SRV_PID=""
grep -q 'drained' "$LOG" || fail "server log missing drain confirmation"

echo "serve-smoke ok (render byte-identical to CLI; cache, 429, streaming and drain exercised)"
