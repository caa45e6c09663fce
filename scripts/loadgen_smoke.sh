#!/usr/bin/env bash
# loadgen_smoke.sh — end-to-end smoke test for phocus-loadgen and the SLO
# regression gate.
#
# Boots a real phocus-server, runs the full deterministic workload (sync
# sweeps, async burst, cancellations, oversized-body rejects, crash/restart)
# in managed mode, and asserts:
#
#   1. the run completes with zero request errors and emits a JSON report
#      with per-phase percentiles, throughput and 429 rates;
#   2. two -plan invocations with the same seed print the same
#      schedule_digest, and a different seed changes it (determinism);
#   3. GET /slo answered and landed in the report;
#   4. phocus-slogate passes the fresh report against the checked-in
#      baseline at a wide CI tolerance, and its -selftest proves the gate
#      rejects an injected 2x regression at tolerance 0;
#   5. warm restarts work end to end: a solve writes a prepared-instance
#      snapshot, a restarted server warm-fills the cache from it (readyz
#      gated until then) and answers the same request as a cache hit with
#      the same score; flipping one byte of the snapshot gets it
#      quarantined and counted while the request still succeeds cold;
#   6. fingerprints are owner-scoped handles: tenant alice's delta to the
#      fingerprint of her own solve applies, tenant bob's to the same
#      fingerprint gets the unknown-fingerprint 404.
#
# Requires: go toolchain. JSON is picked apart with sed/grep so the script
# runs on a bare CI image. The report lands at $LOADGEN_REPORT (default
# loadgen_report.json) for artifact upload.
set -euo pipefail

ADDR="127.0.0.1:${PHOCUS_LOADGEN_PORT:-18431}"
BASE="http://$ADDR"
WORKDIR="$(mktemp -d)"
REPORT="${LOADGEN_REPORT:-loadgen_report.json}"
BASELINE="${LOADGEN_BASELINE:-bench/baseline_loadgen.json}"

SERVER_PID=""

cleanup() {
  [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null || true
  rm -rf "$WORKDIR"
}
trap cleanup EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }

echo "==> building phocus-server, phocus-loadgen, phocus-slogate, phocus-datagen"
go build -o "$WORKDIR/phocus-server" ./cmd/phocus-server
go build -o "$WORKDIR/phocus-loadgen" ./cmd/phocus-loadgen
go build -o "$WORKDIR/phocus-slogate" ./cmd/phocus-slogate
go build -o "$WORKDIR/phocus-datagen" ./cmd/phocus-datagen

SEED="${LOADGEN_SEED:-1}"
LG_ARGS=(-seed "$SEED" -tenants 3 -photos 40
  -sync 24 -async 10 -cancel 6 -oversize 3 -crash -crash-jobs 4
  -concurrency 6 -oversize-bytes $((1<<21)))

echo "==> schedule determinism: same seed, same digest"
D1=$("$WORKDIR/phocus-loadgen" "${LG_ARGS[@]}" -plan | sed -n 's/^schedule_digest: //p')
D2=$("$WORKDIR/phocus-loadgen" "${LG_ARGS[@]}" -plan | sed -n 's/^schedule_digest: //p')
D3=$("$WORKDIR/phocus-loadgen" "${LG_ARGS[@]}" -seed $((SEED + 1)) -plan | sed -n 's/^schedule_digest: //p')
[ -n "$D1" ] || fail "-plan printed no digest"
[ "$D1" = "$D2" ] || fail "same seed produced digests $D1 vs $D2"
[ "$D1" != "$D3" ] || fail "different seeds produced the same digest"
echo "    digest $D1 (stable across runs; seed+1 differs)"

# -max-body 1 MiB makes the 2 MiB oversize bodies deterministic 413s; a
# small queue makes the async burst actually exercise 429 backpressure.
# -snapshot-dir means the crash/restart phase restarts into a warm-filled
# prepare cache instead of re-running Prepare for every replayed job.
SERVER_CMD="$WORKDIR/phocus-server -addr $ADDR -data-dir $WORKDIR/data \
  -max-body $((1<<20)) -job-workers 2 -queue-depth 8 -drain-timeout 5s \
  -snapshot-dir $WORKDIR/snaps"

echo "==> full managed run (crash/restart included) against $BASE"
"$WORKDIR/phocus-loadgen" "${LG_ARGS[@]}" \
  -server-cmd "$SERVER_CMD" -base-url "$BASE" -out "$REPORT" \
  || fail "loadgen run reported errors (see $REPORT)"

echo "==> report sanity"
grep -q '"schedule_digest": "'"$D1"'"' "$REPORT" || fail "report digest != planned digest $D1"
for phase in sync_solve async_burst cancel oversize crash_restart; do
  grep -q "\"name\": \"$phase\"" "$REPORT" || fail "phase $phase missing from report"
done
grep -q '"p95_ms"' "$REPORT" || fail "report has no latency percentiles"
grep -q '"slo"' "$REPORT" || fail "report is missing the server /slo verdict"
grep -q '"rejected_413": 3' "$REPORT" || fail "oversize phase did not reject all 3 bodies with 413"

echo "==> SLO gate: fresh report vs checked-in baseline (wide CI tolerance)"
"$WORKDIR/phocus-slogate" -baseline "$BASELINE" -candidate "$REPORT" \
  -tolerance "${LOADGEN_TOLERANCE:-8.0}" -abs-slack-ms 250 -abs-429 0.5 \
  || fail "slo gate rejected the fresh report against $BASELINE"

echo "==> SLO gate selftest: injected 2x regression must fail at tolerance 0"
"$WORKDIR/phocus-slogate" -baseline "$BASELINE" -selftest \
  || fail "gate selftest failed"

# --- warm-restart + corruption smoke -----------------------------------
# Self-contained server lifecycle (the managed loadgen run above owns its
# own server); fresh data/snapshot dirs so metrics counts are exact.
SNAPDIR="$WORKDIR/warmsnaps"
WARMDATA="$WORKDIR/warmdata"

start_snap_server() { # start_snap_server <logfile>
  "$WORKDIR/phocus-server" -addr "$ADDR" -data-dir "$WARMDATA" \
    -snapshot-dir "$SNAPDIR" -job-workers 2 -queue-depth 8 \
    -drain-timeout 5s >"$1" 2>&1 &
  SERVER_PID=$!
  # /readyz is gated on the snapshot warm-fill, so 200 means the prepare
  # cache already holds whatever the snapshot dir could replay.
  for _ in $(seq 1 100); do
    if [ "$(curl -s -o /dev/null -w '%{http_code}' "$BASE/readyz" || true)" = 200 ]; then
      return 0
    fi
    sleep 0.1
  done
  fail "server never became ready (log $1)"
}

stop_server() {
  kill -TERM "$SERVER_PID" 2>/dev/null || true
  for _ in $(seq 1 100); do
    kill -0 "$SERVER_PID" 2>/dev/null || break
    sleep 0.1
  done
  kill -9 "$SERVER_PID" 2>/dev/null || true
  SERVER_PID=""
}

metric() { # metric <name> — current value of an unlabeled /metrics series
  # No early exit in the awk program: closing the pipe early would SIGPIPE
  # curl, which pipefail turns into a silent set -e death.
  curl -s "$BASE/metrics" | awk -v m="$1" '$1 == m && !seen { print $2; seen = 1 }'
}

metric_ge() { # metric_ge <name> <floor> <what>
  V=$(metric "$1")
  awk -v v="${V:-0}" -v f="$2" 'BEGIN { exit (v + 0 >= f + 0) ? 0 : 1 }' \
    || fail "$3 ($1=${V:-absent}, want >= $2)"
}

solve_score() { # solve_score <body-file> — POST /solve, print the score
  RESP=$(curl -s -XPOST --data-binary @"$1" "$BASE/solve?tau=0.6") \
    || fail "solve request failed"
  SCORE=$(echo "$RESP" | sed -n 's/.*"score":\([0-9.eE+-]*\).*/\1/p')
  [ -n "$SCORE" ] || fail "solve returned no score: $RESP"
  echo "$SCORE"
}

wait_snap() { # wait_snap — poll until an installed *.snap lands
  for _ in $(seq 1 100); do
    if ls "$SNAPDIR"/*.snap >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  return 1
}

echo "==> warm restart: snapshot written, replayed, served as a cache hit"
"$WORKDIR/phocus-datagen" -kind public -photos 40 -seed 7 > "$WORKDIR/inst.json"
start_snap_server "$WORKDIR/warm1.log"
COLD_SCORE=$(solve_score "$WORKDIR/inst.json")
wait_snap || fail "no snapshot written after the cold solve"
metric_ge phocus_snapshot_write_total 1 "cold solve never persisted a snapshot"
stop_server

start_snap_server "$WORKDIR/warm2.log"
metric_ge phocus_snapshot_load_total 1 "restarted server loaded no snapshots"
WARM_SCORE=$(solve_score "$WORKDIR/inst.json")
[ "$WARM_SCORE" = "$COLD_SCORE" ] \
  || fail "warm score $WARM_SCORE != cold score $COLD_SCORE"
metric_ge phocus_prepare_cache_hits_total 1 "restart did not serve from the warm cache"
echo "    snapshot replayed; score stable at $COLD_SCORE"
stop_server

echo "==> corruption injection: flipped byte quarantined, solve falls back cold"
SNAP=$(ls "$SNAPDIR"/*.snap | head -n 1)
SIZE=$(wc -c < "$SNAP")
OFF=$((SIZE / 2))
ORIG=$(dd if="$SNAP" bs=1 skip="$OFF" count=1 2>/dev/null | od -An -tu1 | tr -d ' ')
printf "$(printf '\\%03o' $(( (ORIG + 1) % 256 )))" \
  | dd of="$SNAP" bs=1 seek="$OFF" count=1 conv=notrunc 2>/dev/null

start_snap_server "$WORKDIR/warm3.log"
metric_ge phocus_snapshot_corrupt_total 1 "flipped byte was not detected"
ls "$SNAPDIR"/*.snap.corrupt >/dev/null 2>&1 \
  || fail "corrupt snapshot was not quarantined"
FALLBACK_SCORE=$(solve_score "$WORKDIR/inst.json")
[ "$FALLBACK_SCORE" = "$COLD_SCORE" ] \
  || fail "cold fallback score $FALLBACK_SCORE != original $COLD_SCORE"
wait_snap || fail "cold fallback never re-persisted a snapshot"
echo "    quarantined $(basename "$SNAP"); fallback answered $FALLBACK_SCORE"
stop_server

echo "==> delta churn: owner-scoped handle, fingerprint evolves, stale handle 404s, snapshot follows"
start_snap_server "$WORKDIR/churn.log"
ALICE=(-H "X-Phocus-Tenant: alice")
RESP=$(curl -s "${ALICE[@]}" -XPOST --data-binary @"$WORKDIR/inst.json" "$BASE/solve?tau=0.6") \
  || fail "pre-churn solve failed"
FP=$(echo "$RESP" | sed -n 's/.*"fingerprint":"\([0-9a-f]\{64\}\)".*/\1/p')
[ -n "$FP" ] || fail "solve response carried no fingerprint: $RESP"

DELTA='{"add":[{"cost":1.2,"memberships":[{"subset":0,"relevance":0.4}]}]}'
# Another tenant holding alice's fingerprint gets the unknown-fingerprint
# answer, and nothing changes.
FOREIGN=$(curl -s -o /dev/null -w '%{http_code}' -H "X-Phocus-Tenant: bob" -XPOST -d "$DELTA" "$BASE/instances/$FP/delta")
[ "$FOREIGN" = 404 ] || fail "bob's delta to alice's fingerprint answered $FOREIGN, want 404"
DRESP=$(curl -s "${ALICE[@]}" -XPOST -d "$DELTA" "$BASE/instances/$FP/delta") \
  || fail "delta request failed"
NEWFP=$(echo "$DRESP" | sed -n 's/.*"new_fingerprint":"\([0-9a-f]\{64\}\)".*/\1/p')
[ -n "$NEWFP" ] || fail "delta response carried no new fingerprint: $DRESP"
[ "$NEWFP" != "$FP" ] || fail "delta did not evolve the fingerprint"
metric_ge phocus_delta_apply_total 1 "delta apply was not counted"

# The pre-churn handle must stop resolving the moment the instance evolves.
STALE=$(curl -s -o /dev/null -w '%{http_code}' "${ALICE[@]}" -XPOST -d "$DELTA" "$BASE/instances/$FP/delta")
[ "$STALE" = 404 ] || fail "stale fingerprint answered $STALE, want 404"

# Chaining a second batch onto the evolved handle keeps working, and the
# snapshot dir converges to exactly the post-churn fingerprint: stale
# snapshots removed, the final one persisted (async, so poll).
CRESP=$(curl -s "${ALICE[@]}" -XPOST -d "$DELTA" "$BASE/instances/$NEWFP/delta") \
  || fail "chained delta request failed"
FINALFP=$(echo "$CRESP" | sed -n 's/.*"new_fingerprint":"\([0-9a-f]\{64\}\)".*/\1/p')
[ -n "$FINALFP" ] || fail "chained delta carried no new fingerprint: $CRESP"
for _ in $(seq 1 100); do
  if [ -f "$SNAPDIR/$FINALFP.snap" ] \
    && [ ! -f "$SNAPDIR/$FP.snap" ] && [ ! -f "$SNAPDIR/$NEWFP.snap" ]; then
    break
  fi
  sleep 0.1
done
[ -f "$SNAPDIR/$FINALFP.snap" ] || fail "post-churn snapshot never persisted"
[ ! -f "$SNAPDIR/$FP.snap" ] || fail "pre-churn snapshot was not invalidated"
echo "    fingerprint ${FP:0:12}… → ${NEWFP:0:12}… → ${FINALFP:0:12}…; bob's and stale handles 404, snapshot replaced"
stop_server

echo "PASS: loadgen run clean, schedule deterministic, SLO gate enforced, warm restart + quarantine + delta churn verified ($REPORT)"
