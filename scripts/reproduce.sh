#!/usr/bin/env bash
# Reproduces every experiment of the paper end to end:
#   1. build,
#   2. full test suite (~570 tests: unit, integration, property sweeps,
#      differential fuzzing, conformance, pruning ablation, synthesis),
#   3. the headline pipeline (Agreement/Validity/Termination in ~1 s),
#   4. the six paper-reproduction binaries in bench/: Tables 1-3, Figs. 2-4,
#      explicit vs parameterized, fairness (Table 2 includes a deliberate
#      60 s timeout on the naive automaton).
# Outputs land in test_output.txt and bench_output.txt at the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -G Ninja
cmake --build build

ctest --test-dir build 2>&1 | tee test_output.txt

./build/examples/verify_redbelly

for b in build/bench/*; do "$b"; done 2>&1 | tee bench_output.txt
