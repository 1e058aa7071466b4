#!/usr/bin/env bash
# Network-chaos and Byzantine-worker smoke test for the distributed checker:
#   1. reference run with the plain in-process checker;
#   2. `hvc serve` + 3 reconnecting `hvc work` processes under injected
#      frame drop, reorder and one-sided partitions (one fixed seed per
#      kind) — the merged verdict AND the schema accounting must match the
#      reference byte for byte (modulo timing/solver-path fields);
#   3. fork-local mode (`hvc check --workers 3`) under mixed chaos;
#   4. a lying worker (HV_LIE_VERDICTS=1) against a certifying coordinator
#      (`hvc serve --certify`), which checks every record before it merges —
#      the liar must be banned, and the run must still land on the
#      reference verdict.
# Usage: scripts/chaos_smoke.sh [build-dir]
set -euo pipefail
cd "$(dirname "$0")/.."

build="${1:-build}"
hvc="$build/hvc"
model="models/simplified_consensus.ta"
# Table-2 Inv1_0: enough schema solving for chaos to bite mid-run.
prop='<>(locD0 != 0) -> [](locD1 == 0 && locE1x == 0)'
work="$(mktemp -d)"
sock="$work/coord.sock"
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$work"' EXIT

# Strip run-dependent fields (timing, solver pivot path, resume/retry
# counters, incremental-solver accounting and the rational op split, all of
# which legitimately differ across lease boundaries); what must match is the
# verdict and the schema accounting.
normalize() {
  sed -E 's/"(seconds|pivots|resumed|retries|segments_[a-z]+|prefix_reuse_ratio|rational_[a-z_]+)": [0-9.]+(, )?//g' "$1"
}

# Strict accounting parity needs cross-schema learning off: which schemas
# are cut (vs solved) depends on connection interleaving, which chaos
# deliberately scrambles.
export HV_NO_LEMMAS=1

workers() {  # workers <count> <label-prefix> — reconnecting background workers
  for i in $(seq 1 "$1"); do
    "$hvc" work --connect "unix:$sock" --label "$2-$i" --retry 10 --reconnect 60 &
  done
}

echo "== reference run (in-process)"
"$hvc" check "$model" --prop "$prop" --json > "$work/ref.json"
normalize "$work/ref.json" > "$work/ref.norm"

chaos_leg() {  # chaos_leg <kind> <rate> <seed>
  local kind="$1" rate="$2" seed="$3"
  echo "== chaos leg: kind=$kind rate=$rate seed=$seed"
  HV_NET_FAULT_KIND="$kind" HV_NET_FAULT_RATE="$rate" HV_NET_FAULT_SEED="$seed" \
    "$hvc" serve "$model" --prop "$prop" --listen "unix:$sock" --lease-timeout 2 \
    --json > "$work/chaos-$kind.json" &
  local coord=$!
  HV_NET_FAULT_KIND="$kind" HV_NET_FAULT_RATE="$rate" HV_NET_FAULT_SEED="$seed" \
    workers 3 "chaos-$kind"
  wait "$coord"
  wait || true  # workers may exit refused/quarantined under heavy chaos
  normalize "$work/chaos-$kind.json" > "$work/chaos-$kind.norm"
  if ! diff -u "$work/ref.norm" "$work/chaos-$kind.norm"; then
    echo "FAIL: chaos ($kind, seed $seed) run differs from the in-process run" >&2
    exit 1
  fi
  echo "OK: chaos ($kind, seed $seed) run matches the in-process run"
}

chaos_leg drop 0.05 1
chaos_leg reorder 0.10 2
chaos_leg partition 0.02 3

echo "== fork-local mode under mixed chaos"
HV_NET_FAULT_KIND=mix HV_NET_FAULT_RATE=0.05 HV_NET_FAULT_SEED=7 \
  "$hvc" check "$model" --prop "$prop" --workers 3 --json > "$work/forkmix.json"
normalize "$work/forkmix.json" > "$work/forkmix.norm"
if ! diff -u "$work/ref.norm" "$work/forkmix.norm"; then
  echo "FAIL: fork-local mixed-chaos run differs from the in-process run" >&2
  exit 1
fi
echo "OK: fork-local mixed-chaos run matches the in-process run"

echo "== lying worker vs certifying coordinator"
# Text mode: the byzantine: line (hostile frames, bans) is printed there.
"$hvc" serve "$model" --prop "$prop" --listen "unix:$sock" --lease-timeout 2 \
  --certify --cert-out "$work/liar.cert.json" > "$work/liar.txt" &
coord=$!
HV_LIE_VERDICTS=1 "$hvc" work --connect "unix:$sock" --label liar --retry 10 &
workers 2 honest
wait "$coord"
wait || true  # the liar exits nonzero when its connection is cut

ref_verdict="$(grep -oE '"verdict": "[a-z]+"' "$work/ref.json" | head -1 | cut -d'"' -f4)"
liar_verdict="$(grep -oE ': (holds|violated|unknown) \(' "$work/liar.txt" | head -1 | cut -d' ' -f2)"
if [ "$liar_verdict" != "$ref_verdict" ]; then
  echo "FAIL: a lying worker moved the verdict ($liar_verdict, reference $ref_verdict)" >&2
  cat "$work/liar.txt" >&2
  exit 1
fi
banned="$(grep '^byzantine:' "$work/liar.txt" | grep -oE '[0-9]+ banned' | cut -d' ' -f1 || true)"
if [ "${banned:-0}" -lt 1 ]; then
  echo "FAIL: the lying worker was not banned (was it caught?)" >&2
  cat "$work/liar.txt" >&2
  exit 1
fi
echo "OK: lying worker caught at merge and banned; verdict intact ($(grep '^byzantine:' "$work/liar.txt"))"
