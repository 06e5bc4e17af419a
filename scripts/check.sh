#!/usr/bin/env bash
# The standing correctness gate every performance PR must clear:
#
#   1. tier-1   Release build + the full ctest suite (which includes the
#               failpoint torture tests — torture_btree_test is always
#               compiled with DATATREE_FAILPOINTS).
#   2. TSan     concurrency + torture tests under -fsanitize=thread.
#   3. ASan     the same under -fsanitize=address (skip with --no-asan).
#   4. UBSan    full build + the full ctest suite under
#               -fsanitize=undefined.
#
# The TSan/ASan passes build only the concurrency-relevant test targets and
# filter ctest accordingly: the full suite is too slow to run under them,
# and the sequential frontend/regress tests add no race or lifetime
# coverage. UBSan is cheap enough to run everything, and undefined behaviour
# can hide in sequential code just as well.
#
# Usage: scripts/check.sh [--no-asan]
# Env:   JOBS=<n>  build/test parallelism (default: nproc)

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
RUN_ASAN=1
[[ "${1:-}" == "--no-asan" ]] && RUN_ASAN=0

# Test targets exercising the concurrent tree and its lock protocol, plus the
# persistent work-stealing pool (runtime_scheduler_test links only the
# header-only datatree lib, so it is sanitizer-safe unlike the datalog suite).
# datalog_ingest_test is the designated sanitizer proof for incremental
# ingestion: snapshot probe readers stay pinned while ingest()/refixpoint()
# commits batches. net_server_test is the wire-protocol counterpart: reader
# threads answer snapshot queries over real sockets while the single writer
# thread group-commits, including a mid-traffic SIGTERM drain — exactly the
# interleavings TSan/ASan exist to check. btree_basic_test's typed suite runs
# clear / destructor / move on plain, fingerprint and snapshot trees, so ASan
# (detect_leaks) sees every path that frees nodes. runtime_determinism_test
# compares T-thread engine results against 1-thread results at grains 1 and
# 16, so work stealing inside the engine runs under both sanitizers.
CONC_TARGETS=(torture_btree_test optimistic_lock_test btree_concurrent_test
              btree_smallnode_test hints_test runtime_scheduler_test
              btree_bulk_merge_test btree_search_test btree_snapshot_test
              datalog_ingest_test net_server_test btree_basic_test
              runtime_determinism_test)
# ctest -R filter matching exactly the tests those targets register.
CONC_FILTER='Torture|OptimisticLock|AbortWrite|Concurrent|SmallNode|Hint|Scheduler|BulkMerge|FromSorted|SampleSeparators|SearchEquivalence|SearchMetrics|Snapshot|Ingest|NetServer|BTreeBasic|Determinism'
# The TSan leg doubles as the scalar-fallback proof for the fingerprint
# kernel of leaf layout v2 (DESIGN.md §15): TSan builds force
# DTREE_SIMD_VECTOR off (src/core/race_access.h), so the Fp* equivalence and
# torture variants run the scalar fingerprint scan here, with TSan checking
# the append-zone publish ordering (key elements before the fp byte).

export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 second_deadlock_stack=1}"
export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}"

echo "== [1] tier-1: Release build + full ctest (incl. failpoint torture) =="
cmake -B build -S . >/dev/null
cmake --build build -j"$JOBS"
(cd build && ctest --output-on-failure -j"$JOBS")

echo "== [2] TSan: concurrency + torture suite =="
cmake -B build-tsan -S . -DDATATREE_SANITIZE=thread >/dev/null
cmake --build build-tsan -j"$JOBS" --target "${CONC_TARGETS[@]}"
(cd build-tsan && ctest --output-on-failure -j"$JOBS" -R "$CONC_FILTER")

if [[ "$RUN_ASAN" == 1 ]]; then
  echo "== [3] ASan: concurrency + torture suite =="
  cmake -B build-asan -S . -DDATATREE_SANITIZE=address >/dev/null
  cmake --build build-asan -j"$JOBS" --target "${CONC_TARGETS[@]}"
  (cd build-asan && ctest --output-on-failure -j"$JOBS" -R "$CONC_FILTER")
fi

echo "== [4] UBSan: full build + full ctest =="
cmake -B build-ubsan -S . -DDATATREE_SANITIZE=undefined >/dev/null
cmake --build build-ubsan -j"$JOBS"
(cd build-ubsan && ctest --output-on-failure -j"$JOBS")

echo "== all checks passed =="
