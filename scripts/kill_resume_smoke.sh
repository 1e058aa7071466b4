#!/usr/bin/env bash
# Kill-and-resume smoke test for the crash-safe progress journal:
#   1. reference run with a journal, uninterrupted;
#   2. the same run SIGKILLed mid-flight, once its journal holds 20 records
#      (the journal keeps every batch of settled schema verdicts that
#      reached fdatasync); a run that finishes before the kill fails;
#   3. a --resume run from the killed journal;
#   4. the resumed run's verdict and schema accounting must match the
#      reference run's exactly;
#   5. the same for a --certify run: SIGKILLed with a journal, resumed with
#      --certify --resume, and the resumed run's certificate must pass
#      hvc audit (the replayed records carry their proofs);
#   6. a --certify run resumed from its own complete journal must write a
#      certificate byte-identical (cmp) to the uninterrupted run's;
#   7. with cross-schema learning on, a killed run resumes to the
#      reference verdict, and a plain run resumed from its own complete
#      journal prints the journaling run's --json report: every counter
#      rides on the journal records, so only timing, the resume counter
#      and the resumed run's own encoder counters may differ.
# Usage: scripts/kill_resume_smoke.sh [build-dir]
set -euo pipefail
cd "$(dirname "$0")/.."

build="${1:-build}"
hvc="$build/hvc"
model="models/simplified_consensus.ta"
# Table-2 Inv1_0: several seconds of schema solving, a comfortable kill window.
prop='<>(locD0 != 0) -> [](locD1 == 0 && locE1x == 0)'
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

# Strip run-dependent fields (timing, the resume counter, and the solver
# path counters: pivots, retries, the rational fast/big op split and the
# incremental-solver accounting, which differ once the resumed run's
# encoders start from an empty assertion stack); what must match is the
# verdict and the schema accounting.
normalize() {
  sed -E 's/"(seconds|pivots|resumed|retries|segments_[a-z]+|prefix_reuse_ratio|rational_[a-z_]+)": [0-9.]+(, )?//g' "$1"
}

. scripts/await_records.sh

# Runs "$@" in the background and SIGKILLs it once the journal "$1" holds
# at least 20 records (its header line aside), or after a 60 s fallback.
# A run that exits on its own fails the script: what is drilled is a kill
# mid-run, not a resume from a complete journal.
kill_mid_run() {
  local journal="$1"
  shift
  "$@" > /dev/null &
  local pid=$! code=0
  await_records "$journal" 20 "$pid"
  kill -KILL "$pid" 2> /dev/null || true
  wait "$pid" 2> /dev/null || code=$?
  if [ "$code" -ne 137 ]; then
    echo "FAIL: run finished before the kill (exit $code)" >&2
    exit 1
  fi
  echo "   killed as planned; journal kept $(wc -l < "$journal") lines"
}

# The strict accounting-parity sections run with cross-schema learning off:
# a resumed run replays journaled verdicts instead of re-solving, so it
# learns different lemmas than the uninterrupted reference and cuts a
# different (equally sound) set of schemas. A final section checks the
# learning-on resume at the verdict level.
export HV_NO_LEMMAS=1

echo "== reference run (uninterrupted)"
"$hvc" check "$model" --prop "$prop" --json --journal "$work/ref.jsonl" \
  > "$work/ref.json"

echo "== interrupted run (SIGKILL at 20 journal records)"
kill_mid_run "$work/killed.jsonl" \
  "$hvc" check "$model" --prop "$prop" --json --journal "$work/killed.jsonl"

echo "== resumed run"
"$hvc" check "$model" --prop "$prop" --json --resume "$work/killed.jsonl" \
  > "$work/resumed.json"
if ! grep -q '"resumed": [1-9]' "$work/resumed.json"; then
  echo "FAIL: resumed run replayed nothing from the killed journal" >&2
  exit 1
fi

normalize "$work/ref.json" > "$work/ref.norm"
normalize "$work/resumed.json" > "$work/resumed.norm"
if ! diff -u "$work/ref.norm" "$work/resumed.norm"; then
  echo "FAIL: resumed run differs from the uninterrupted run" >&2
  exit 1
fi
echo "OK: resumed run matches the uninterrupted run"

echo "== certifying run SIGKILLed mid-flight, resumed with --certify --resume"
kill_mid_run "$work/certify.jsonl" \
  "$hvc" check "$model" --prop "$prop" --json --certify --cert-out "$work/unused.cert.json" \
  --journal "$work/certify.jsonl"
"$hvc" check "$model" --prop "$prop" --json --certify --cert-out "$work/resumed.cert.json" \
  --resume "$work/certify.jsonl" > "$work/certify_resumed.json"
if ! grep -q '"resumed": [1-9]' "$work/certify_resumed.json"; then
  echo "FAIL: certifying resume replayed nothing from the killed journal" >&2
  exit 1
fi
normalize "$work/certify_resumed.json" > "$work/certify_resumed.norm"
if ! diff -u "$work/ref.norm" "$work/certify_resumed.norm"; then
  echo "FAIL: resumed certifying run differs from the uninterrupted run" >&2
  exit 1
fi
"$hvc" audit "$work/resumed.cert.json" > "$work/audit.txt" || {
  cat "$work/audit.txt" >&2
  echo "FAIL: the resumed run's certificate does not audit" >&2
  exit 1
}
echo "OK: resumed certifying run matches, and its certificate audits PASS"

echo "== certifying run resumed from its own complete journal"
# The resume replays records in journal order, so the evidence, and with it
# every certificate byte, comes out as in the uninterrupted run.
"$hvc" check "$model" --prop "$prop" --json --certify --cert-out "$work/whole.cert.json" \
  --journal "$work/whole.jsonl" > /dev/null
"$hvc" check "$model" --prop "$prop" --json --certify --cert-out "$work/whole_resumed.cert.json" \
  --resume "$work/whole.jsonl" > /dev/null
if ! cmp "$work/whole.cert.json" "$work/whole_resumed.cert.json"; then
  echo "FAIL: the certificate resumed from a complete journal differs from the uninterrupted one" >&2
  exit 1
fi
echo "OK: certificate resumed from the complete journal is byte-identical" \
     "($(wc -c < "$work/whole.cert.json") B)"

echo "== kill and resume with cross-schema learning on"
unset HV_NO_LEMMAS
kill_mid_run "$work/learn.jsonl" \
  "$hvc" check "$model" --prop "$prop" --json --journal "$work/learn.jsonl"
"$hvc" check "$model" --prop "$prop" --json --resume "$work/learn.jsonl" \
  > "$work/learn_resumed.json"

verdict_of() { grep -o '"verdict": "[a-z]*"' "$1" | head -1; }
if [ "$(verdict_of "$work/learn_resumed.json")" != "$(verdict_of "$work/ref.json")" ]; then
  echo "FAIL: learning-on resumed verdict differs from the reference" >&2
  exit 1
fi
echo "OK: learning-on resumed run agrees on the verdict" \
     "($(grep -o '"cut": [0-9]*, "lemma_hits": [0-9]*, "lemmas_learned": [0-9]*' \
         "$work/learn_resumed.json" | head -1))"

echo "== plain run resumed from its own complete journal"
"$hvc" check "$model" --prop "$prop" --json --journal "$work/complete.jsonl" \
  > "$work/complete.json"
"$hvc" check "$model" --prop "$prop" --json --resume "$work/complete.jsonl" \
  > "$work/complete_resumed.json"
own_counters() {
  sed -E 's/"(seconds|resumed|segments_[a-z]+|prefix_reuse_ratio)": [0-9.e+-]+(, )?//g' "$1"
}
if ! diff -u <(own_counters "$work/complete.json") <(own_counters "$work/complete_resumed.json"); then
  echo "FAIL: the run resumed from a complete journal reports other counters" >&2
  exit 1
fi
echo "OK: resumed from the complete journal, the --json report matches" \
     "($(grep -o '"lemmas_learned": [0-9]*' "$work/complete.json" | head -1))"
