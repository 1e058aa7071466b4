#!/usr/bin/env bash
# Execution-mode parity: every bundled model's default properties must get
# the same `hvc check --json` verdicts whether one thread, four threads or
# two forked worker processes settle the schemas, with cross-schema learning
# off (one thread and the fleet), with one-shot instead of incremental
# solving, with the fault-tolerant runtime armed (journal, per-schema
# watchdogs and memory budget, all with limits that never fire), with a
# certifying two-worker fleet whose coordinator checks every worker record
# before it merges, with the machine-word rational fast path off
# (HV_NO_FAST_RATIONAL=1, one thread) and with certificates on (one
# thread). Every property that holds must also account for the same
# number of schemas in every leg: its schemas + pruned + cut +
# unknown_schemas equal the one-thread leg's. A schema budget of exactly
# 2116, and one of 5000, must settle the simplified consensus alike at one
# thread, four threads and two workers. Two one-thread certifying runs of the simplified
# consensus must emit byte-identical certificates, and `hvc audit --json` of
# that certificate must pass with byte-identical reports at one and at four
# audit jobs. The certifying fleet's simplified-consensus certificate must
# pass `hvc audit` too.
# Usage: scripts/mode_parity.sh [build-dir]
set -euo pipefail
cd "$(dirname "$0")/.."

build="${1:-build}"
hvc="$build/hvc"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

. scripts/report_summary.sh

for model in models/*.ta; do
  name="$(basename "$model" .ta)"
  cap=()
  # The composite automaton exhausts any budget (the paper's negative
  # result): cap it as the certify step does; "unknown" must still agree.
  if [ "$name" = naive_consensus ]; then cap=(--max-schemas 500 --timeout 60); fi
  reference=""
  leg=0
  for mode in "--threads 1" "--threads 4" "--workers 2" "--threads 1 --no-lemmas" \
              "--threads 1 --no-incremental" "--workers 2 --no-lemmas" \
              "--threads 1 --journal $work/$name.journal --schema-timeout 3600 --pivot-budget 1000000000 --memory-budget 1000000" \
              "--workers 2 --certify --cert-out $work/$name.fleet-cert.json" \
              "HV_NO_FAST_RATIONAL=1 --threads 1" \
              "--threads 1 --certify"; do
    leg=$((leg + 1))
    tag="$name.$leg"
    # A leg's leading NAME=value words are environment settings.
    read -r -a words <<< "$mode"
    envs=()
    while [[ "${words[0]}" == *=* ]]; do
      envs+=("${words[0]}")
      words=("${words[@]:1}")
    done
    code=0
    env ${envs[@]+"${envs[@]}"} "$hvc" check "$model" "${words[@]}" --json ${cap[@]+"${cap[@]}"} \
      > "$work/$tag.json" 2> "$work/$tag.err" || code=$?
    if [ "$code" -eq 2 ] && grep -q "no bundled properties" "$work/$tag.err"; then
      echo "== $name: no bundled properties, skipped"
      continue 2
    fi
    if [ "$code" -ne 0 ] && [ "$code" -ne 1 ] && [ "$code" -ne 3 ]; then
      echo "FAIL: $name $mode exited $code" >&2
      cat "$work/$tag.err" >&2
      exit 1
    fi
    summary "$work/$tag.json" > "$work/$tag.summary"
    echo "== $name $mode: $(paste -sd, "$work/$tag.summary")"
    if [ -z "$reference" ]; then
      reference="$work/$tag.summary"
    elif ! diff "$reference" "$work/$tag.summary"; then
      echo "FAIL: $name verdicts or schema totals under $mode differ from --threads 1" >&2
      exit 1
    fi
  done
done

# One budget rule: a schema is charged when it is visited, and the budget is
# exhausted only when a schema beyond it would be charged. Inv2_0, Good_0,
# Dec_0 and SRoundTerm have exactly 2116 schemas each, so they hold under
# --max-schemas 2116 in every mode; Inv1_0 has more and exhausts it. A fleet
# charges the schemas its workers' cuts skip as a thread does, so Inv1_0
# (20,354 schemas, mostly cut) exhausts a budget of 5000 in every mode too.
for budget in 2116 5000; do
  echo "== schema budget (simplified consensus, --max-schemas $budget)"
  reference=""
  for mode in "--threads 1" "--threads 4" "--workers 2"; do
    tag="budget$budget.${mode// /}"
    code=0
    # shellcheck disable=SC2086
    "$hvc" check models/simplified_consensus.ta $mode --max-schemas "$budget" --json \
      > "$work/$tag.json" 2> "$work/$tag.err" || code=$?
    if [ "$code" -ne 0 ] && [ "$code" -ne 1 ] && [ "$code" -ne 3 ]; then
      echo "FAIL: budget $budget $mode exited $code" >&2
      cat "$work/$tag.err" >&2
      exit 1
    fi
    summary "$work/$tag.json" > "$work/$tag.summary"
    echo "== budget $budget $mode: $(paste -sd, "$work/$tag.summary")"
    if [ -z "$reference" ]; then
      reference="$work/$tag.summary"
    elif ! diff "$reference" "$work/$tag.summary"; then
      echo "FAIL: budget-$budget verdicts under $mode differ from --threads 1" >&2
      exit 1
    fi
  done
done

echo "== certificate byte-stability (simplified consensus, --threads 1 --certify)"
for run in a b; do
  "$hvc" check models/simplified_consensus.ta --threads 1 --certify \
    --cert-out "$work/cert.$run.json" > /dev/null
done
cmp "$work/cert.a.json" "$work/cert.b.json"

echo "== audit parity (that certificate, hvc audit --jobs 1 / --jobs 4)"
for jobs in 1 4; do
  if ! "$hvc" audit "$work/cert.a.json" --json --jobs "$jobs" > "$work/audit.$jobs.json"; then
    echo "FAIL: hvc audit --jobs $jobs did not pass" >&2
    cat "$work/audit.$jobs.json" >&2
    exit 1
  fi
done
cmp "$work/audit.1.json" "$work/audit.4.json"

echo "== fleet audit (simplified consensus, --workers 2 --certify certificate)"
if ! "$hvc" audit "$work/simplified_consensus.fleet-cert.json" > "$work/audit.fleet.txt"; then
  echo "FAIL: hvc audit did not pass the certifying fleet's certificate" >&2
  cat "$work/audit.fleet.txt" >&2
  exit 1
fi
echo "mode parity: OK"
