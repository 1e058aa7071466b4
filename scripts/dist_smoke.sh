#!/usr/bin/env bash
# Distributed checking smoke test for the coordinator/worker service:
#   1. reference run with the plain in-process checker;
#   2. the same property through `hvc serve` + 3 `hvc work` processes, one
#      of which is SIGKILLed mid-run — its lease must be reassigned and the
#      merged verdict must still match the reference exactly;
#   3. the coordinator itself SIGKILLed mid-run, then restarted with
#      --resume from its journal; the resumed run must match too;
#   4. the same with a certifying coordinator (hvc serve --certify), whose
#      resumed run's certificate must also pass hvc audit;
#   5. a learning coordinator with 3 learning workers (the verdict must
#      match), and a mixed-learning fleet: a learning coordinator, one worker
#      under HV_NO_LEMMAS=1 and one learning worker, whose verdict and schema
#      total must match an in-process run with learning on;
#   6. a learning fork-local fleet (`hvc check --workers 2`) on naive
#      Inv1_0, five times: each run must finish within 60 s and hold. Live
#      fact broadcasts once let one unread worker socket deadlock such a
#      fleet in a few runs out of ten.
# Usage: scripts/dist_smoke.sh [build-dir]
set -euo pipefail
cd "$(dirname "$0")/.."

build="${1:-build}"
hvc="$build/hvc"
model="models/simplified_consensus.ta"
# Table-2 Inv1_0: several seconds of schema solving, a comfortable kill window.
prop='<>(locD0 != 0) -> [](locD1 == 0 && locE1x == 0)'
work="$(mktemp -d)"
sock="$work/coord.sock"
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$work"' EXIT
. scripts/await_records.sh
. scripts/report_summary.sh

# Strip run-dependent fields (timing, solver pivot path, resume/retry
# counters, incremental-solver accounting and the rational fast/big op
# split, all of which differ across lease boundaries and on reassigned or
# journal-resumed work); what must match is the verdict and the schema
# accounting.
normalize() {
  sed -E 's/"(seconds|pivots|resumed|retries|segments_[a-z]+|prefix_reuse_ratio|rational_[a-z_]+)": [0-9.]+(, )?//g' "$1"
}

# The strict accounting-parity sections run with cross-schema learning off:
# which schemas are cut (vs solved or pruned) depends on lease interleaving
# and journal truncation, so only the verdict is interleaving-independent
# with learning on. A final section checks exactly that.
export HV_NO_LEMMAS=1

workers() {  # workers <count> <label-prefix> — starts background hvc work jobs
  for i in $(seq 1 "$1"); do
    "$hvc" work --connect "unix:$sock" --label "$2-$i" --retry 10 &
  done
}

# kill_coordinator <pid> <journal>: SIGKILLs the coordinator once its journal
# holds 20 records; a coordinator that finished first fails the script.
kill_coordinator() {
  local code=0
  await_records "$2" 20 "$1"
  kill -9 "$1" 2> /dev/null || true
  wait "$1" 2> /dev/null || code=$?
  if [ "$code" -ne 137 ]; then
    echo "FAIL: coordinator finished before the kill (exit $code)" >&2
    exit 1
  fi
  echo "   killed coordinator $1 as planned; journal kept $(wc -l < "$2") lines"
}

echo "== reference run (in-process)"
"$hvc" check "$model" --prop "$prop" --json > "$work/ref.json"

echo "== distributed run: coordinator + 3 workers, one SIGKILLed mid-run"
# The coordinator's journal shows its progress: the worker dies once 20
# schemas have merged, while the coordinator has yet to write its report.
"$hvc" serve "$model" --prop "$prop" --listen "unix:$sock" --lease-timeout 2 \
  --journal "$work/dist.jsonl" --json > "$work/dist.json" &
coord=$!
"$hvc" work --connect "unix:$sock" --label doomed --retry 10 &
doomed=$!
workers 2 survivor
await_records "$work/dist.jsonl" 20 "$coord"
kill -9 "$doomed" 2> /dev/null || true
if [ -s "$work/dist.json" ]; then
  echo "FAIL: the distributed run finished before the worker kill" >&2
  exit 1
fi
echo "   killed worker $doomed as planned; journal held $(wc -l < "$work/dist.jsonl") lines"
wait "$coord"
wait || true  # surviving workers exit 0 on the coordinator's shutdown

normalize "$work/ref.json" > "$work/ref.norm"
normalize "$work/dist.json" > "$work/dist.norm"
if ! diff -u "$work/ref.norm" "$work/dist.norm"; then
  echo "FAIL: distributed run differs from the in-process run" >&2
  exit 1
fi
echo "OK: distributed run matches the in-process run"

echo "== coordinator SIGKILLed mid-run, restarted with --resume"
"$hvc" serve "$model" --prop "$prop" --listen "unix:$sock" --lease-timeout 2 \
  --journal "$work/run.jsonl" --json > /dev/null &
coord=$!
workers 3 first
kill_coordinator "$coord" "$work/run.jsonl"
wait || true  # orphaned workers exit nonzero with "connection lost"

"$hvc" serve "$model" --prop "$prop" --listen "unix:$sock" --lease-timeout 2 \
  --resume "$work/run.jsonl" --json > "$work/resumed.json" &
coord=$!
workers 3 second
wait "$coord"
wait || true

normalize "$work/resumed.json" > "$work/resumed.norm"
if ! diff -u "$work/ref.norm" "$work/resumed.norm"; then
  echo "FAIL: resumed coordinator run differs from the in-process run" >&2
  exit 1
fi
echo "OK: resumed coordinator run matches the in-process run"

echo "== certifying coordinator SIGKILLed mid-run, restarted with --certify --resume"
"$hvc" serve "$model" --prop "$prop" --listen "unix:$sock" --lease-timeout 2 --certify \
  --cert-out "$work/unused.cert.json" --journal "$work/certify.jsonl" --json > /dev/null &
coord=$!
workers 3 certify-first
kill_coordinator "$coord" "$work/certify.jsonl"
wait || true

"$hvc" serve "$model" --prop "$prop" --listen "unix:$sock" --lease-timeout 2 --certify \
  --cert-out "$work/resumed.cert.json" --resume "$work/certify.jsonl" \
  --json > "$work/certify_resumed.json" &
coord=$!
workers 3 certify-second
wait "$coord"
wait || true

normalize "$work/certify_resumed.json" > "$work/certify_resumed.norm"
if ! diff -u "$work/ref.norm" "$work/certify_resumed.norm"; then
  echo "FAIL: resumed certifying coordinator run differs from the in-process run" >&2
  exit 1
fi
"$hvc" audit "$work/resumed.cert.json" > "$work/audit.txt" || {
  cat "$work/audit.txt" >&2
  echo "FAIL: the resumed certifying coordinator's certificate does not audit" >&2
  exit 1
}
echo "OK: resumed certifying coordinator run matches, and its certificate audits PASS"

echo "== distributed run with cross-schema learning on"
unset HV_NO_LEMMAS
"$hvc" serve "$model" --prop "$prop" --listen "unix:$sock" --lease-timeout 2 \
  --json > "$work/learn.json" &
coord=$!
workers 3 learner
wait "$coord"
wait || true

verdict_of() { grep -o '"verdict": "[a-z]*"' "$1" | head -1; }
if [ "$(verdict_of "$work/learn.json")" != "$(verdict_of "$work/ref.json")" ]; then
  echo "FAIL: learning-on distributed verdict differs from the reference" >&2
  diff -u "$work/ref.json" "$work/learn.json" || true
  exit 1
fi
echo "OK: learning-on distributed run agrees on the verdict" \
     "($(grep -o '"cut": [0-9]*, "lemma_hits": [0-9]*, "lemmas_learned": [0-9]*' \
         "$work/learn.json" | head -1))"

echo "== mixed-learning fleet: a learning coordinator, one worker under HV_NO_LEMMAS=1"
# The run learns; the plain worker's book does not, so it solves every schema
# of its leases and reports no cut count, while the learning worker's cuts
# settle leases ungranted. Both must add up to the in-process schema total.
"$hvc" check "$model" --prop "$prop" --json > "$work/ref_learn.json"
"$hvc" serve "$model" --prop "$prop" --listen "unix:$sock" --lease-timeout 2 \
  --json > "$work/mixed.json" &
coord=$!
# The plain worker starts first, so it holds a lease before the learner
# can drain the run.
HV_NO_LEMMAS=1 "$hvc" work --connect "unix:$sock" --label mixed-plain --retry 10 \
  > "$work/mixed_plain.txt" &
plain=$!
sleep 0.5
"$hvc" work --connect "unix:$sock" --label mixed-learner --retry 10 > /dev/null &
wait "$coord"
wait "$plain" || {
  cat "$work/mixed_plain.txt" >&2
  echo "FAIL: the HV_NO_LEMMAS worker did not finish cleanly" >&2
  exit 1
}
wait || true
if ! grep -q ' [1-9][0-9]* records' "$work/mixed_plain.txt"; then
  cat "$work/mixed_plain.txt" >&2
  echo "FAIL: the HV_NO_LEMMAS worker settled no schema; the leg tested nothing" >&2
  exit 1
fi
summary "$work/ref_learn.json" > "$work/ref_learn.summary"
summary "$work/mixed.json" > "$work/mixed.summary"
if ! diff -u "$work/ref_learn.summary" "$work/mixed.summary"; then
  echo "FAIL: the mixed-learning fleet's verdict or schema total differs from in-process" >&2
  exit 1
fi
echo "OK: mixed-learning fleet matches the in-process run ($(cat "$work/mixed.summary");" \
     "$(cat "$work/mixed_plain.txt"))"

echo "== learning fork-local fleet on naive Inv1_0, five runs under a 60-s bound"
for run in 1 2 3 4 5; do
  code=0
  timeout -k 5 60 "$hvc" check models/naive_consensus.ta --prop "$prop" --name Inv1_0 \
    --workers 2 --json > "$work/naive_$run.json" || code=$?
  if [ "$code" -eq 124 ] || [ "$code" -eq 137 ]; then
    echo "FAIL: learning fleet run $run did not finish within 60 s" >&2
    exit 1
  fi
  if [ "$(verdict_of "$work/naive_$run.json")" != '"verdict": "holds"' ]; then
    cat "$work/naive_$run.json" >&2
    echo "FAIL: learning fleet run $run ended with exit $code, not holds" >&2
    exit 1
  fi
done
echo "OK: five learning fleet runs on naive Inv1_0 held within 60 s each"
