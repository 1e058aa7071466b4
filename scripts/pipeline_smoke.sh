#!/usr/bin/env bash
# DAG pipeline smoke test:
#   1. `hvc redbelly --dag-workers N` must print the same stable report as
#      the default one-lane run (timing and DAG-accounting lines stripped),
#      and the --certify certificates must be byte-identical;
#   2. a DAG run with per-node journals is SIGKILLed mid-flight and
#      restarted with --resume: the resumed report must still match the
#      one-lane reference, with part of the work replayed from journals;
#   3. several live properties are multiplexed onto one coordinator/worker
#      fleet (`hvc serve` fair-share leases), the coordinator is SIGKILLed
#      mid-run and restarted with --resume; the merged verdicts must match
#      the in-process check exactly.
# Usage: scripts/pipeline_smoke.sh [build-dir]
set -euo pipefail
cd "$(dirname "$0")/.."

build="${1:-build}"
hvc="$build/hvc"
work="$(mktemp -d)"
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$work"' EXIT
. scripts/await_records.sh

# kill_mid_run <pid> <journal> <what>: SIGKILLs the run once the journal
# holds 20 records; a run that finished first fails the script.
kill_mid_run() {
  local code=0
  await_records "$2" 20 "$1"
  kill -9 "$1" 2> /dev/null || true
  wait "$1" 2> /dev/null || code=$?
  if [ "$code" -ne 137 ]; then
    echo "FAIL: $3 finished before the kill (exit $code)" >&2
    exit 1
  fi
  echo "   killed $3 $1 mid-run; $(basename "$2") kept $(wc -l < "$2") lines"
}

# Strip what legitimately differs between schedules: per-property solve
# times, the total-time line and the DAG accounting line. Verdicts, schema
# counts and composed verdicts must match byte for byte.
normalize_report() {
  sed -E -e '/^total time:/d' -e '/^dag:/d' -e 's/, [0-9.eE+-]+s\)$/)/' "$1"
}

echo "== one-lane reference"
"$hvc" redbelly > "$work/seq.txt"
normalize_report "$work/seq.txt" > "$work/seq.norm"

echo "== DAG schedule parity (2 and 4 lanes)"
for lanes in 2 4; do
  "$hvc" redbelly --dag-workers "$lanes" > "$work/dag$lanes.txt" 2> "$work/dag$lanes.err"
  normalize_report "$work/dag$lanes.txt" > "$work/dag$lanes.norm"
  if ! diff -u "$work/seq.norm" "$work/dag$lanes.norm"; then
    echo "FAIL: $lanes-lane DAG report differs from the one-lane report" >&2
    exit 1
  fi
  grep -q '^\[dag ' "$work/dag$lanes.err" ||
    { echo "FAIL: no DAG progress on stderr ($lanes lanes)" >&2; exit 1; }
done
echo "OK: DAG reports match the one-lane report"

"$hvc" redbelly --certify --cert-out "$work/seq.cert.json" > /dev/null
"$hvc" redbelly --dag-workers 2 --certify --cert-out "$work/dag.cert.json" > /dev/null 2>&1
if ! cmp -s "$work/seq.cert.json" "$work/dag.cert.json"; then
  echo "FAIL: DAG certificate is not byte-identical to the one-lane one" >&2
  exit 1
fi
echo "OK: certificates are byte-identical" \
     "($(wc -c < "$work/seq.cert.json") bytes)"

# Learning makes per-property schema accounting depend on solve order (what
# gets cut vs solved), which is exactly what a mid-run kill perturbs — so
# the kill/resume leg runs with the lemma pool off, against its own
# reference. Verdict parity with learning on is already covered above.
echo "== SIGKILL mid-DAG, then --resume from per-node journals"
export HV_NO_LEMMAS=1
"$hvc" redbelly > "$work/nolemmas_ref.txt"
normalize_report "$work/nolemmas_ref.txt" > "$work/nolemmas_ref.norm"

"$hvc" redbelly --dag-workers 2 --journal "$work/dagrun" > /dev/null 2>&1 &
victim=$!
kill_mid_run "$victim" "$work/dagrun.consensus.Inv1_0.jsonl" "DAG run"
echo "   $(ls "$work/dagrun".*.jsonl | wc -l) node journals," \
     "$(cat "$work/dagrun".*.jsonl | wc -l) journal lines survive"

"$hvc" redbelly --dag-workers 2 --journal "$work/dagrun" --resume \
  > "$work/resumed.txt" 2> /dev/null
normalize_report "$work/resumed.txt" > "$work/resumed.norm"
if ! diff -u "$work/nolemmas_ref.norm" "$work/resumed.norm"; then
  echo "FAIL: resumed DAG run differs from the one-lane reference" >&2
  exit 1
fi
echo "OK: resumed DAG run matches the one-lane reference"

echo "== fair-share lease multiplexing: two live properties, one fleet"
model="models/simplified_consensus.ta"
prop1='<>(locD0 != 0) -> [](locD1 == 0 && locE1x == 0)'
prop2='<>(locD1 != 0) -> [](locD0 == 0 && locE0x == 0)'
sock="$work/coord.sock"

"$hvc" check "$model" --prop "$prop1" --name P1 --prop "$prop2" --name P2 \
  --json > "$work/multi_ref.json"

# dist_smoke.sh's normalize: drop run-dependent timing/solver-path fields.
normalize_json() {
  sed -E 's/"(seconds|pivots|resumed|retries|segments_[a-z]+|prefix_reuse_ratio|rational_[a-z_]+)": [0-9.]+(, )?//g' "$1"
}

workers() {
  for i in $(seq 1 "$1"); do
    "$hvc" work --connect "unix:$sock" --label "$2-$i" --retry 10 &
  done
}

"$hvc" serve "$model" --prop "$prop1" --name P1 --prop "$prop2" --name P2 \
  --listen "unix:$sock" --lease-timeout 2 --journal "$work/serve.jsonl" \
  --json > /dev/null &
coord=$!
workers 2 first
kill_mid_run "$coord" "$work/serve.jsonl" coordinator
wait || true  # orphaned workers exit nonzero with "connection lost"

"$hvc" serve "$model" --prop "$prop1" --name P1 --prop "$prop2" --name P2 \
  --listen "unix:$sock" --lease-timeout 2 --resume "$work/serve.jsonl" \
  --json > "$work/multi_dist.json" &
coord=$!
workers 2 second
wait "$coord"
wait || true

normalize_json "$work/multi_ref.json" > "$work/multi_ref.norm"
normalize_json "$work/multi_dist.json" > "$work/multi_dist.norm"
if ! diff -u "$work/multi_ref.norm" "$work/multi_dist.norm"; then
  echo "FAIL: multiplexed distributed run differs from the in-process check" >&2
  exit 1
fi
echo "OK: multiplexed distributed run matches the in-process check"
echo "pipeline smoke: all green"
