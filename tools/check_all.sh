#!/usr/bin/env bash
# One-stop correctness gate: everything CI runs, in the same order, from a
# single command. Stages:
#
#   1. lint        — pingmesh_lint over src/ (layering DAG, determinism
#                    taint, lock discipline, hygiene rules; see
#                    tools/lint/lint.h for the catalog), plus the
#                    library-rule subset over tools/ and bench/
#   2. tier-1      — default build with -Werror + full ctest suite
#                    (includes the corpus replay tests, the lint fixture
#                    tests and the `shape`-labelled figure benches), the
#                    Release build with -Werror (build-release/; some GCC
#                    diagnostics fire only at -O3), then an
#                    observability smoke (pingmeshctl metrics/trace must
#                    show the wired subsystems; DESIGN.md §10), a chaos
#                    replay smoke, the self-healing soak smoke
#                    (pingmeshctl soak on the fixed CI seed; DESIGN.md §14)
#                    and perfbench's smoke test (every BENCHMARK.json
#                    workload at a tiny size, output checks included)
#   3. asan        — tools/asan_check.sh (ASan+UBSan, full suite), then the
#                    chaos smoke on the sanitized build: replay a scripted
#                    plan from the corpus, and one random-plan hunt round
#                    against the planted fail-closed defect — the shrunken
#                    reproducer must replay to a violation (DESIGN.md §11)
#   4. tsan        — tools/tsan_check.sh (TSan, concurrency tests incl. the
#                    4-worker chaos determinism run and serving under a
#                    concurrent writer)
#   5. fuzz smoke  — if the compiler supports -fsanitize=fuzzer (clang),
#                    build -DPINGMESH_FUZZ=ON and run each harness for
#                    FUZZ_SECONDS (default 60) starting from its corpus.
#                    Skipped with a notice under gcc.
#   6. clang-tidy  — if clang-tidy is installed, run the checked-in
#                    .clang-tidy config over compile_commands.json.
#                    Skipped with a notice otherwise.
#
# Usage: tools/check_all.sh [--fast]
#   --fast   stages 1–2 only (pre-commit loop)
#
# Environment:
#   FUZZ_SECONDS   per-harness fuzz budget in stage 5 (default 60)
set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1
FUZZ_SECONDS=${FUZZ_SECONDS:-60}

banner() { printf '\n=== %s ===\n' "$*"; }

# --- 1. lint ---------------------------------------------------------------
banner "stage 1: pingmesh_lint"
# -Werror comes from the command line, never from a CMakeLists (perfbench
# builds src/ through its own CMakeLists and must not fail on a warning).
cmake -B build -S . -DCMAKE_CXX_FLAGS=-Werror >/dev/null
cmake --build build -j --target pingmesh_lint >/dev/null
./build/tools/lint/pingmesh_lint src
# tools/ and bench/ are CLI/bench code, not library code: only the
# module-agnostic hygiene subset applies there.
./build/tools/lint/pingmesh_lint --preset=support tools bench

# --- 2. tier-1 build + tests ----------------------------------------------
banner "stage 2: tier-1 build + ctest"
cmake --build build -j
(cd build && ctest --output-on-failure -j"$(nproc)")
# CI's second configuration: Release (-O3) must be warning-free too, since
# some GCC diagnostics (-Wrestrict) fire only at that optimization level.
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release -DCMAKE_CXX_FLAGS=-Werror >/dev/null
cmake --build build-release -j >/dev/null

# --- 2b. observability smoke ------------------------------------------------
# The metrics exposition and the end-to-end trace must stay wired through
# the whole loop (DESIGN.md §10); an empty exposition here means a
# subsystem lost its enable_observability call.
banner "stage 2b: observability smoke"
./build/tools/pingmeshctl metrics --minutes 5 2>/dev/null \
  | grep -q 'agent.probes_total{result=ok}' \
  || { echo "pingmeshctl metrics lost the agent counters"; exit 1; }
./build/tools/pingmeshctl trace --minutes 15 --sample 16 2>/dev/null \
  | grep -q 'cosmos.append' \
  || { echo "pingmeshctl trace lost the data-path spans"; exit 1; }

# --- 2c. chaos replay smoke --------------------------------------------------
# Every valid scripted plan in the corpus must replay clean (all invariants
# OK; pingmeshctl exits 1 on a violation).
banner "stage 2c: chaos replay smoke"
for plan in tests/corpus/chaos_plan/valid_*.plan; do
  ./build/tools/pingmeshctl chaos run --plan "$plan" 2>/dev/null \
    | grep -q 'record-conservation: OK' \
    || { echo "chaos replay of $plan violated an invariant"; exit 1; }
done

# --- 2d. self-healing soak smoke ---------------------------------------------
# Closed-loop detection -> blame -> repair on the fixed CI seed (~2 sim-
# hours): exit 1 on any false reload, unrepaired black-hole, or invariant
# violation (DESIGN.md §14). The perf ceilings (MTTD/MTTR) and 1-vs-4-worker
# report identity are gated by bench_soak in CI's perf-smoke job.
banner "stage 2d: self-healing soak smoke"
./build/tools/pingmeshctl soak --seed 7 --episodes 4 --minutes 30 >/dev/null 2>&1 \
  || { echo "self-healing soak gate failed (rerun: pingmeshctl soak --seed 7)"; exit 1; }

# --- 2e. perfbench smoke -----------------------------------------------------
# perfbench builds src/ through its own CMakeLists into .bench_build/ and
# runs every workload at a tiny size, untraced and traced: a src/ change
# that breaks the benchmark's build or a workload's output checks fails here.
banner "stage 2e: perfbench smoke"
python3 perfbench/smoke_test.py

if [[ "$FAST" == "1" ]]; then
  banner "--fast: skipping sanitizers, fuzz smoke, clang-tidy"
  exit 0
fi

# --- 3. ASan ---------------------------------------------------------------
banner "stage 3: ASan/UBSan"
tools/asan_check.sh

# --- 3b. chaos hunt smoke (ASan build) --------------------------------------
# One random-plan hunt round against the planted fail-closed defect: the
# hunter must find a violating plan, shrink it, and the minimal reproducer
# must replay to the same violation (exit 1) — all on the sanitized build.
banner "stage 3b: chaos hunt smoke (ASan build)"
CHAOS_MIN_PLAN=$(mktemp)
trap 'rm -f "$CHAOS_MIN_PLAN"' EXIT
./build-asan/tools/pingmeshctl chaos hunt --start-seed 1 --seeds 25 \
  --break fail-closed >"$CHAOS_MIN_PLAN" \
  || { echo "chaos hunt missed the planted fail-closed defect"; exit 1; }
if ./build-asan/tools/pingmeshctl chaos run --plan "$CHAOS_MIN_PLAN" \
    --break fail-closed >/dev/null 2>&1; then
  echo "shrunken reproducer no longer fails on replay"; exit 1
fi
./build-asan/tools/pingmeshctl chaos run --plan "$CHAOS_MIN_PLAN" >/dev/null \
  || { echo "reproducer fails even without the planted defect"; exit 1; }

# --- 4. TSan ---------------------------------------------------------------
banner "stage 4: TSan"
tools/tsan_check.sh

# --- 5. fuzz smoke ---------------------------------------------------------
banner "stage 5: fuzz smoke (${FUZZ_SECONDS}s per harness)"
cmake -B build-fuzz -S . -DPINGMESH_FUZZ=ON >/dev/null
cmake --build build-fuzz -j --target tools >/dev/null 2>&1 || cmake --build build-fuzz -j >/dev/null
if ls build-fuzz/tools/fuzz/fuzz_* >/dev/null 2>&1; then
  # One harness per corpus directory (tools/fuzz/CMakeLists.txt).
  for corpus in tests/corpus/*/; do
    harness=$(basename "$corpus")
    bin="build-fuzz/tools/fuzz/fuzz_${harness}"
    [[ -x "$bin" ]] || { echo "missing $bin for $corpus"; exit 1; }
    echo "--- fuzz_${harness}"
    "$bin" -max_total_time="$FUZZ_SECONDS" "$corpus"
  done
else
  echo "compiler lacks -fsanitize=fuzzer (gcc): fuzz smoke skipped;"
  echo "corpus replay already ran as ctests in stage 2."
fi

# --- 6. clang-tidy ---------------------------------------------------------
banner "stage 6: clang-tidy"
if command -v clang-tidy >/dev/null 2>&1; then
  # compile_commands.json is exported by the stage-1/2 configure.
  mapfile -t SOURCES < <(git ls-files 'src/*.cc' 'tools/lint/*.cc')
  clang-tidy -p build --quiet "${SOURCES[@]}"
else
  echo "clang-tidy not installed: skipped (config checked in as .clang-tidy)."
fi

banner "all stages passed"
