#!/usr/bin/env bash
# Build the thread-sanitizer configuration and run the concurrency tests:
# the ThreadPool unit tests, the concurrent probe-path test, the
# serial-vs-parallel full-loop identity test, the streaming-path tests
# (the upload-time tap runs in the serial drain phase; the determinism test
# exercises it under 4 workers), and the observability tests (worker shards
# bump shared counters, observe spinlocked histograms, and emit trace spans
# concurrently — ObsSim runs the loop at 4 workers), the chaos tests
# (the 1-vs-4-worker bit-identity run executes a full fault schedule on
# 4 worker shards), and the serving test that renders QueryService answers
# while a writer thread applies batches to the RollupStore. A clean run
# certifies the fleet tick path (SimNetwork::tcp_probe and everything it
# reaches) and the serving read path are race-free under real parallel
# execution.
#
# Usage: tools/tsan_check.sh [extra ctest -R pattern]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build-tsan}
PATTERN=${1:-'ThreadPool|Parallel|Streaming|Metrics|Trace|ObsSim|Chaos|ServeConcurrency'}

cmake -B "$BUILD_DIR" -S . -DPINGMESH_SANITIZE=thread
# Build everything, not just parallel_test/streaming_test: the ctest pattern
# below also matches tests discovered from other executables (e.g. the
# ParallelEquivalence cases in core_test), and ctest errors out on a test
# whose binary was never built.
cmake --build "$BUILD_DIR" -j
(cd "$BUILD_DIR" && ctest --output-on-failure -R "$PATTERN")
