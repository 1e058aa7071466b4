#!/usr/bin/env bash
# Multi-tenant verification service smoke test:
#   1. reference runs with the plain in-process checker;
#   2. an hvc daemon serving two tenants submitting concurrently — each
#      response must match the in-process `hvc check --json` bytes;
#   3. an identical resubmission must be a content-addressed cache hit,
#      byte-identical to the original response (including its "seconds":
#      the cache serves the original run's bytes verbatim);
#   4. the daemon SIGKILLed mid-job, then restarted with the same --state:
#      the interrupted jobs (one plain, one --certify) must resume from
#      their journals and finish with the reference verdicts and schema
#      totals, and the already-finished job must re-serve from the
#      re-seeded cache byte-identically;
#   5. a tenant over its schema budget must be rejected with a precise
#      error, not queued.
# Usage: scripts/service_smoke.sh [build-dir]
set -euo pipefail
cd "$(dirname "$0")/.."

build="${1:-build}"
hvc="$build/hvc"
# Fast job: one schema, milliseconds — the bread-and-butter submission.
fast_model="models/bv_broadcast.ta"
fast_prop='<>(locC0 != 0) -> [](locC1 == 0)'
# Slow job (Table-2 Inv1_0): several seconds of schema solving, a
# comfortable SIGKILL window.
slow_model="models/simplified_consensus.ta"
slow_prop='<>(locD0 != 0) -> [](locD1 == 0 && locE1x == 0)'
work="$(mktemp -d)"
sock="$work/daemon.sock"
state="$work/state"
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$work"' EXIT
. scripts/await_records.sh

# The only run-dependent field of a *fresh* in-process response is its
# wall-clock; schema accounting is deterministic with learning off. A
# journal-RESUMED run additionally replays recorded verdicts instead of
# re-solving them, so its solver accounting (pivots, rational ops, segment
# reuse) legitimately differs — that comparison strips the same fields the
# distributed smoke does. Cache-hit comparisons below deliberately do NOT
# normalize: served bytes are verbatim.
normalize() {
  sed -E 's/"seconds": [0-9.]+(, )?//g' "$1"
}
normalize_resumed() {
  sed -E 's/"(seconds|pivots|resumed|retries|segments_[a-z]+|prefix_reuse_ratio|rational_[a-z_]+)": [0-9.]+(, )?//g' "$1"
}
export HV_NO_LEMMAS=1

echo "== reference runs (in-process)"
fast_ref_code=0
"$hvc" check "$fast_model" --prop "$fast_prop" --json > "$work/fast_ref.json" \
  || fast_ref_code=$?
slow_ref_code=0
"$hvc" check "$slow_model" --prop "$slow_prop" --json > "$work/slow_ref.json" \
  || slow_ref_code=$?
certify_ref_code=0
"$hvc" check "$slow_model" --prop "$slow_prop" --json --certify \
  --cert-out "$work/certify_ref.cert.json" > "$work/certify_ref.json" || certify_ref_code=$?
echo "   fast reference exit $fast_ref_code, slow reference exit $slow_ref_code"

echo "== daemon: two tenants submit concurrently"
"$hvc" daemon --listen "unix:$sock" --state "$state" > "$work/daemon.log" 2>&1 &
daemon=$!
( code_b=0
  "$hvc" submit "$fast_model" --connect "unix:$sock" --tenant bob \
    --prop "$fast_prop" --name other_label --wait --json > "$work/bob.json" \
    || code_b=$?
  echo "$code_b" > "$work/bob.code" ) &
bob=$!
code_a=0
"$hvc" submit "$fast_model" --connect "unix:$sock" --tenant alice \
  --prop "$fast_prop" --wait --json > "$work/alice.json" || code_a=$?
wait "$bob"
[ "$code_a" -eq "$fast_ref_code" ] || {
  echo "FAIL: tenant alice exit $code_a, reference $fast_ref_code" >&2; exit 1; }
[ "$(cat "$work/bob.code")" -eq "$fast_ref_code" ] || {
  echo "FAIL: tenant bob exit $(cat "$work/bob.code")" >&2; exit 1; }
normalize "$work/fast_ref.json" > "$work/fast_ref.norm"
normalize "$work/alice.json" > "$work/alice.norm"
if ! diff -u "$work/fast_ref.norm" "$work/alice.norm"; then
  echo "FAIL: daemon response differs from the in-process run" >&2
  exit 1
fi
echo "OK: both tenants served; responses match the in-process run"

echo "== identical resubmission is a cache hit"
code_hit=0
"$hvc" submit "$fast_model" --connect "unix:$sock" --tenant bob \
  --prop "$fast_prop" --wait --json > "$work/hit.json" || code_hit=$?
[ "$code_hit" -eq "$fast_ref_code" ] || {
  echo "FAIL: cached resubmission exit $code_hit" >&2; exit 1; }
# Byte-identical, seconds and all: these are the original run's bytes.
if ! diff -u "$work/alice.json" "$work/hit.json"; then
  echo "FAIL: cache hit is not byte-identical to the original response" >&2
  exit 1
fi
"$hvc" status --connect "unix:$sock" --json > "$work/status.json"
grep -q '"hits":[1-9]' "$work/status.json" || {
  echo "FAIL: daemon status reports no cache hits" >&2
  cat "$work/status.json" >&2
  exit 1
}
echo "OK: resubmission served from cache, byte-identical, zero schemas solved"

echo "== SIGKILL the daemon mid-job, restart, resume and re-serve"
slow_job="$("$hvc" submit "$slow_model" --connect "unix:$sock" --tenant alice \
  --prop "$slow_prop" | awk '$1 == "job" { print $2 }')"
certify_job="$("$hvc" submit "$slow_model" --connect "unix:$sock" --tenant bob \
  --prop "$slow_prop" --certify | awk '$1 == "job" { print $2 }')"
echo "   slow job id $slow_job running, certifying job id $certify_job submitted"
# The daemon dies once the slow job's journal holds 20 records. It deletes
# a job's journal when the job finishes, so a journal missing after the kill
# means the job was not interrupted.
slow_journal="$state/job-$slow_job.jsonl"
await_records "$slow_journal" 20 "$daemon"
kill -9 "$daemon"
wait "$daemon" 2>/dev/null || true
if [ ! -f "$slow_journal" ]; then
  echo "FAIL: the slow job finished before the daemon kill" >&2
  exit 1
fi
echo "   killed daemon $daemon; event log kept $(wc -l < "$state/queue.jsonl") lines," \
     "slow job journal $(wc -l < "$slow_journal")"

"$hvc" daemon --listen "unix:$sock" --state "$state" > "$work/daemon2.log" 2>&1 &
daemon=$!
code_slow=0
"$hvc" result "$slow_job" --connect "unix:$sock" --wait > "$work/slow.json" \
  || code_slow=$?
[ "$code_slow" -eq "$slow_ref_code" ] || {
  echo "FAIL: resumed job exit $code_slow, reference $slow_ref_code" >&2
  cat "$work/daemon2.log" >&2
  exit 1
}
normalize_resumed "$work/slow_ref.json" > "$work/slow_ref.norm"
normalize_resumed "$work/slow.json" > "$work/slow.norm"
if ! diff -u "$work/slow_ref.norm" "$work/slow.norm"; then
  echo "FAIL: resumed job differs from the in-process reference" >&2
  exit 1
fi
if ! grep -q '"resumed": [1-9]' "$work/slow.json"; then
  echo "FAIL: the interrupted slow job replayed nothing from its journal" >&2
  exit 1
fi
echo "   job resumed $(grep -o '"resumed": [0-9]*' "$work/slow.json")" \
     "schema verdicts from its journal"
code_certify=0
"$hvc" result "$certify_job" --connect "unix:$sock" --wait > "$work/certify.json" \
  || code_certify=$?
[ "$code_certify" -eq "$certify_ref_code" ] || {
  echo "FAIL: resumed certifying job exit $code_certify, reference $certify_ref_code" >&2
  cat "$work/daemon2.log" >&2
  exit 1
}
normalize_resumed "$work/certify_ref.json" > "$work/certify_ref.norm"
normalize_resumed "$work/certify.json" > "$work/certify.norm"
if ! diff -u "$work/certify_ref.norm" "$work/certify.norm"; then
  echo "FAIL: resumed certifying job differs from the in-process --certify run" >&2
  exit 1
fi
echo "   certifying job $(grep -o '"resumed": [0-9]*' "$work/certify.json" | head -1)," \
     "matches the in-process --certify run"
grep -q "re-queued" "$work/daemon2.log" || {
  echo "FAIL: restarted daemon replayed nothing" >&2
  cat "$work/daemon2.log" >&2
  exit 1
}
# The fast job finished before the kill: the restarted daemon must re-serve
# it from the replayed event log, byte-identical to the original response.
code_replay=0
"$hvc" result 1 --connect "unix:$sock" > "$work/replayed.json" || code_replay=$?
[ "$code_replay" -eq "$fast_ref_code" ] || {
  echo "FAIL: re-served job exit $code_replay" >&2; exit 1; }
if ! cmp -s "$work/alice.json" "$work/replayed.json" && \
   ! cmp -s "$work/bob.json" "$work/replayed.json"; then
  echo "FAIL: re-served job 1 is not byte-identical to either original response" >&2
  exit 1
fi
echo "OK: restart resumed the queue and re-served the finished job from cache"
kill "$daemon" 2>/dev/null || true
wait "$daemon" 2>/dev/null || true

echo "== schema-budget quota rejects an oversized submission"
qsock="$work/quota.sock"
"$hvc" daemon --listen "unix:$qsock" --state "$work/quota_state" \
  --tenant-schema-budget 10 > "$work/quota.log" 2>&1 &
qdaemon=$!
code_quota=0
"$hvc" submit "$fast_model" --connect "unix:$qsock" --tenant greedy \
  --prop "$fast_prop" --max-schemas 100 > /dev/null 2> "$work/quota.err" \
  || code_quota=$?
[ "$code_quota" -eq 2 ] || {
  echo "FAIL: oversized submission exited $code_quota, expected 2" >&2; exit 1; }
grep -q "schema budget" "$work/quota.err" || {
  echo "FAIL: rejection does not name the schema budget" >&2
  cat "$work/quota.err" >&2
  exit 1
}
echo "OK: quota rejection is a precise error ($(head -1 "$work/quota.err"))"
kill "$qdaemon" 2>/dev/null || true
wait "$qdaemon" 2>/dev/null || true

echo "service smoke: all sections passed"
