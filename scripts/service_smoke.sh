#!/usr/bin/env bash
# service_smoke.sh — end-to-end smoke test of the warpsimd daemon.
#
# Builds warpsimd, starts it on a local port with a persistent store,
# submits the same job twice, asserts the second response is a cache
# hit whose result bytes are identical to the first and that the job id
# is the result key, SIGTERMs the daemon and asserts a clean drain
# (exit 0), then restarts on the same store and asserts the persisted
# key is a disk hit with byte-identical results across the restart and
# that GET /v1/jobs/{key} still answers it. It then SIGTERMs again,
# restarts without the store (the result is gone, as an in-flight job is
# after a crash) and asserts a resubmission recomputes the same bytes.
# Finally asserts warpload's failure
# contract: against a dead port it must exit non-zero with a structured
# `warpload: FAIL {...}` summary on stderr. Run by the CI `service`
# job; safe to run locally (uses a temp dir, kills its own daemon).
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${PORT:-8723}"
BASE="http://127.0.0.1:$PORT"
TMP="$(mktemp -d)"
trap 'kill "$PID" 2>/dev/null || true; rm -rf "$TMP"' EXIT

go build -o "$TMP/warpsimd" ./cmd/warpsimd

wait_healthy() {
  for _ in $(seq 1 100); do
    curl -fs "$BASE/healthz" >/dev/null 2>&1 && break
    sleep 0.1
  done
  curl -fs "$BASE/healthz" >/dev/null
}

"$TMP/warpsimd" -addr "127.0.0.1:$PORT" -store "$TMP/store" &
PID=$!
wait_healthy

req='{"kernel":"HT","wait":true,"config":{"sms":2,"quick":true,"sched":"GTO"}}'

echo "--- first submission (engine run)"
r1="$(curl -fs -X POST -H 'Content-Type: application/json' -d "$req" "$BASE/v1/jobs")"
echo "$r1"
echo "$r1" | grep -q '"cached": false' || { echo "FAIL: first submission should not be cached" >&2; exit 1; }
echo "$r1" | grep -q '"state": "done"'  || { echo "FAIL: sync submission should return done" >&2; exit 1; }
key="$(echo "$r1" | sed -n 's/.*"key": "\([^"]*\)".*/\1/p')"
[ -n "$key" ] || { echo "FAIL: no result key in response" >&2; exit 1; }
echo "$r1" | grep -q "\"id\": \"$key\"" || { echo "FAIL: the job id is not the result key" >&2; exit 1; }

echo "--- second submission (must be a cache hit)"
r2="$(curl -fs -X POST -H 'Content-Type: application/json' -d "$req" "$BASE/v1/jobs")"
echo "$r2"
echo "$r2" | grep -q '"cached": true' || { echo "FAIL: second identical submission should be cached" >&2; exit 1; }

echo "--- result bytes are identical across fetches"
curl -fs "$BASE/v1/results/$key" > "$TMP/res1.json"
curl -fs "$BASE/v1/results/$key" > "$TMP/res2.json"
cmp "$TMP/res1.json" "$TMP/res2.json" || { echo "FAIL: result fetches differ" >&2; exit 1; }
grep -q '"schema": 2' "$TMP/res1.json" || { echo "FAIL: result is not a schema-2 manifest" >&2; exit 1; }

echo "--- racy inline submission is rejected at admission (422, race findings)"
racy='{"source":"  mov %r1, %tid\n  shr %r3, %r1, 1\n  st.global [%r3+0], %r1\n  exit\n","grid_ctas":1,"cta_threads":64,"mem_words":64}'
rcode="$(curl -s -o "$TMP/racy.json" -w '%{http_code}' -X POST -H 'Content-Type: application/json' -d "$racy" "$BASE/v1/jobs")"
[ "$rcode" = 422 ] || { echo "FAIL: racy submission returned $rcode, want 422" >&2; cat "$TMP/racy.json" >&2; exit 1; }
grep -q '"category": *"race"' "$TMP/racy.json" || { echo "FAIL: 422 body lacks race findings" >&2; cat "$TMP/racy.json" >&2; exit 1; }

echo "--- the same program is admitted with allow_unsafe"
unsafe='{"source":"  mov %r1, %tid\n  shr %r3, %r1, 1\n  st.global [%r3+0], %r1\n  exit\n","grid_ctas":1,"cta_threads":64,"mem_words":64,"allow_unsafe":true,"wait":true}'
r3="$(curl -fs -X POST -H 'Content-Type: application/json' -d "$unsafe" "$BASE/v1/jobs")"
echo "$r3" | grep -q '"state": "done"' || { echo "FAIL: allow_unsafe submission should run" >&2; exit 1; }

echo "--- stats"
curl -fs "$BASE/v1/stats"

echo "--- SIGTERM: daemon must drain cleanly (exit 0)"
kill -TERM "$PID"
wait "$PID"

echo "--- restart on the same store: persisted key survives as a disk hit"
"$TMP/warpsimd" -addr "127.0.0.1:$PORT" -store "$TMP/store" &
PID=$!
wait_healthy
r4="$(curl -fs -X POST -H 'Content-Type: application/json' -d "$req" "$BASE/v1/jobs")"
echo "$r4"
echo "$r4" | grep -q '"cached": true' || { echo "FAIL: persisted key re-ran the engine after restart" >&2; exit 1; }
curl -fs "$BASE/v1/results/$key" > "$TMP/res3.json"
cmp "$TMP/res1.json" "$TMP/res3.json" || { echo "FAIL: result bytes changed across restart" >&2; exit 1; }
curl -fs "$BASE/v1/stats" | grep -q '"disk_hits"' || { echo "FAIL: stats lack the persistent-store counters" >&2; exit 1; }
curl -fs "$BASE/v1/jobs/$key" | grep -q '"state": "done"' || { echo "FAIL: GET /v1/jobs/{key} does not answer a stored result" >&2; exit 1; }
jcode="$(curl -s -o "$TMP/unknown.json" -w '%{http_code}' "$BASE/v1/jobs/j1")"
[ "$jcode" = 404 ] && grep -q resubmit "$TMP/unknown.json" || { echo "FAIL: unknown job id returned $jcode, want a 404 that says to resubmit" >&2; exit 1; }
kill -TERM "$PID"
wait "$PID"

echo "--- SIGTERM restart without the store: a resubmission recomputes the same bytes"
"$TMP/warpsimd" -addr "127.0.0.1:$PORT" &
PID=$!
wait_healthy
r5="$(curl -fs -X POST -H 'Content-Type: application/json' -d "$req" "$BASE/v1/jobs")"
echo "$r5" | grep -q '"cached": false' || { echo "FAIL: a memory-only daemon served the result without running it" >&2; exit 1; }
curl -fs "$BASE/v1/results/$key" > "$TMP/res4.json"
cmp "$TMP/res1.json" "$TMP/res4.json" || { echo "FAIL: the recomputed result differs from the original" >&2; exit 1; }
kill -TERM "$PID"
wait "$PID"

echo "--- warpload against a dead port: non-zero exit + structured failure summary"
set +e
go run ./cmd/warpload -addr "http://127.0.0.1:1" -clients 2 -requests 4 -retries 2 2> "$TMP/warpload.err"
wcode=$?
set -e
[ "$wcode" -ne 0 ] || { echo "FAIL: warpload exited 0 against a dead port" >&2; exit 1; }
grep -q 'warpload: FAIL' "$TMP/warpload.err" || { echo "FAIL: no structured failure summary on stderr" >&2; cat "$TMP/warpload.err" >&2; exit 1; }
grep -q '"errors":' "$TMP/warpload.err" || { echo "FAIL: failure summary lacks error counts" >&2; cat "$TMP/warpload.err" >&2; exit 1; }

echo "service smoke: OK"
