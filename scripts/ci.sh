#!/usr/bin/env bash
# CI entry point: tier-1 build + tests, in stages.
#
#   plain : RelWithDebInfo build, full ctest suite.
#   tsan  : ThreadSanitizer build of the concurrency-heavy targets
#           (metrics_test, latch_test, thread_pool_test, log_merger_test,
#           redo_apply_test, scan_engine_test, query_test, executor_test,
#           consistency_test, net_test, lag_monitor_test, query_profile_test,
#           obs_server_test, failover_test, database_test, ddl_test) — the
#           metrics registry, latches, the scan thread pool and the parallel
#           scan's DOP>1 worker/merge paths (partial folds and the join
#           chain's shared plans included), the log merger draining streams
#           that producer threads deliver into, the redo-apply engine, the
#           lag monitor's sampler, the HTTP server's workers and the socket
#           channel's sender/receiver threads are the hot lock-free/locked
#           paths a data race would hide in. failover_test, database_test and
#           ddl_test drive the one write side both roles share (the primary's
#           commits and a promoted standby's), promotion, and the QuerySCN
#           publish that queries and monitors read while apply runs.
#   asan  : Address+UndefinedBehaviorSanitizer build of the wire/transport
#           targets (net_test, log_shipping_test, transport_test) — the
#           codec's byte-level parsing and the channels' buffer handling are
#           where an out-of-bounds read or overflow would hide.
#   chaos : crash–restart chaos matrix (chaos_test + chaos_matrix_test) and
#           the standby restart suite (restart_test: every RestartMode under a
#           live writer and the background checkpoint thread) under BOTH
#           ASan+UBSan and TSan. Crash points are compiled in
#           (STRATUS_CHAOS=ON, the non-Release default); the matrix arms
#           every crash point at seeded ordinals across apply DOP 1/2/4 and
#           runs the cross-layer invariant auditor after each crash–restart
#           cycle. STRATUS_CHAOS_SEEDS overrides the per-cell seed count.
#   obs   : observability smoke under ASan+UBSan — boots the mini cluster in
#           examples/observability --smoke, which GETs every endpoint
#           (/metrics, /healthz, /v/im_segments, ...) over real sockets and
#           fails on any non-200 or empty body; also runs the HTTP server and
#           query-profile test binaries in the same build.
#   fleet : standby-read-fleet suite under TSan — redo fan-out (N shippers on
#           one RedoLog: shared wakeups, independent Stop, cursor-min
#           retention, rejoin catch-up), the single shipper on its cursor
#           (log_shipping_test: ship, heartbeat, drain on Stop, trim), the
#           lag-aware router's contract modes and drain/rejoin, the fleet
#           chaos cycle, and the 3-standby consistency properties. The
#           fan-out and routing layers are pure concurrency — TSan is the
#           build that would catch their races.
#   persist : durability subsystem under BOTH ASan+UBSan and TSan — the redo
#           archive codec and torn-tail truncation, checkpoint/snapshot
#           encode/decode, fault-injected short/torn/sync-error writes,
#           end-to-end kill-and-recover-from-disk (incl. the fleet node
#           redelivery path), and the disk chaos matrix (crash points fired
#           mid-apply, recovery from the archive, auditor certification).
#           ASan guards the byte-level segment parsing; TSan the archive
#           tee on the delivery hot path and the checkpoint thread.
#   simd  : scan-kernel equivalence under ASan+UBSan — the SWAR/AVX2 filter
#           kernels, the bitmap scan path, the code-space folds (executor_test,
#           and expression_test for folds and joins over IM-expression
#           virtual-column codes) and the engine/cluster consistency sweeps,
#           run three times: with STRATUS_FORCE_SCALAR=1 (scalar reference
#           path), with runtime dispatch (SWAR or AVX2), and with
#           STRATUS_FORCE_ROWPATH=1 (every plan on the row path). ASan+UBSan
#           guard the packed-word tail reads, the shift extraction, and the
#           unsigned code-translation arithmetic.
#   benchsan : the benchmark program under ASan+UBSan — configures perfbench/
#           with the asan stage's flags into its own build directory and runs
#           `standby_bench --workload <w> --seed 1 --seconds 1 --trace 0` for
#           every workload, failing on a non-zero exit or a non-zero
#           `oracle_mismatches`. The program drives every query shape through
#           the parallel scan and its folds under live apply, the code two
#           benchmark runs once died in (heap corruption, SIGSEGV).
#   perfbench : benchmark build + smoke — `python3 perfbench/smoke.py` builds
#           perfbench/ (its own CMake package over src/, into .bench_build/)
#           and runs every workload for one second plus one traced run:
#           every declared metric prints with its unit, the result oracle
#           runs clean, no operation fails. No other stage compiles
#           perfbench/harness/adapter.cc, the benchmark's one caller of the
#           query and cluster API, so an API change that breaks it fails only
#           here.
#
# Usage: scripts/ci.sh [stage] [build-dir-prefix]
#   stage: all (default) | plain | tsan | asan | chaos | obs | fleet | persist | simd | benchsan | perfbench

set -euo pipefail
cd "$(dirname "$0")/.."

STAGE="${1:-all}"
PREFIX="${2:-build-ci}"
JOBS="$(nproc 2>/dev/null || echo 4)"

TSAN_TESTS="metrics_test latch_test thread_pool_test log_merger_test redo_apply_test scan_engine_test query_test executor_test consistency_test net_test lag_monitor_test query_profile_test obs_server_test failover_test database_test ddl_test"
ASAN_TESTS="net_test log_shipping_test transport_test"
CHAOS_TESTS="chaos_test chaos_matrix_test restart_test"
OBS_TESTS="obs_server_test query_profile_test lag_monitor_test"
# fleet_chaos_test is plain-suite only: its churn + kill/rejoin workload is
# wall-clock bound and balloons under TSan's serialization.
FLEET_TESTS="fleet_fanout_test log_shipping_test fleet_router_test consistency_test"
PERSIST_TESTS="redo_archive_test checkpoint_test persist_recovery_test persist_chaos_test"
SIMD_TESTS="scan_kernels_test column_vector_test imcu_test scan_engine_test executor_test expression_test consistency_test"
BENCH_WORKLOADS="scan_quiet htap_churn redo_catchup"

run_plain() {
  echo "==> [plain] build + full test suite"
  cmake -B "${PREFIX}" -S . >/dev/null
  cmake --build "${PREFIX}" -j "${JOBS}"
  ctest --test-dir "${PREFIX}" --output-on-failure -j "${JOBS}"
}

run_tsan() {
  echo "==> [tsan] ThreadSanitizer build (${TSAN_TESTS})"
  local flags="-fsanitize=thread -g -O1"
  cmake -B "${PREFIX}-tsan" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="${flags}" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread" >/dev/null
  # shellcheck disable=SC2086
  cmake --build "${PREFIX}-tsan" -j "${JOBS}" --target ${TSAN_TESTS}
  ctest --test-dir "${PREFIX}-tsan" --output-on-failure -j "${JOBS}" \
    -R "^($(echo "${TSAN_TESTS}" | tr ' ' '|'))\$"
}

run_asan() {
  echo "==> [asan] Address+UBSanitizer build (${ASAN_TESTS})"
  local flags="-fsanitize=address,undefined -fno-sanitize-recover=all -g -O1"
  cmake -B "${PREFIX}-asan" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="${flags}" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined" >/dev/null
  # shellcheck disable=SC2086
  cmake --build "${PREFIX}-asan" -j "${JOBS}" --target ${ASAN_TESTS}
  ctest --test-dir "${PREFIX}-asan" --output-on-failure -j "${JOBS}" \
    -R "^($(echo "${ASAN_TESTS}" | tr ' ' '|'))\$"
}

run_chaos() {
  echo "==> [chaos] crash matrix under ASan+UBSan (${CHAOS_TESTS})"
  local asan_flags="-fsanitize=address,undefined -fno-sanitize-recover=all -g -O1"
  cmake -B "${PREFIX}-chaos-asan" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DSTRATUS_CHAOS=ON \
    -DCMAKE_CXX_FLAGS="${asan_flags}" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined" >/dev/null
  # shellcheck disable=SC2086
  cmake --build "${PREFIX}-chaos-asan" -j "${JOBS}" --target ${CHAOS_TESTS}
  ctest --test-dir "${PREFIX}-chaos-asan" --output-on-failure -j "${JOBS}" \
    -R "^($(echo "${CHAOS_TESTS}" | tr ' ' '|'))\$"

  echo "==> [chaos] crash matrix under TSan (${CHAOS_TESTS})"
  local tsan_flags="-fsanitize=thread -g -O1"
  cmake -B "${PREFIX}-chaos-tsan" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DSTRATUS_CHAOS=ON \
    -DCMAKE_CXX_FLAGS="${tsan_flags}" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread" >/dev/null
  # shellcheck disable=SC2086
  cmake --build "${PREFIX}-chaos-tsan" -j "${JOBS}" --target ${CHAOS_TESTS}
  ctest --test-dir "${PREFIX}-chaos-tsan" --output-on-failure -j "${JOBS}" \
    -R "^($(echo "${CHAOS_TESTS}" | tr ' ' '|'))\$"
}

run_obs() {
  echo "==> [obs] observability smoke under ASan+UBSan (${OBS_TESTS} + example)"
  local flags="-fsanitize=address,undefined -fno-sanitize-recover=all -g -O1"
  cmake -B "${PREFIX}-obs" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="${flags}" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined" >/dev/null
  # shellcheck disable=SC2086
  cmake --build "${PREFIX}-obs" -j "${JOBS}" --target ${OBS_TESTS} observability
  ctest --test-dir "${PREFIX}-obs" --output-on-failure -j "${JOBS}" \
    -R "^($(echo "${OBS_TESTS}" | tr ' ' '|'))\$"
  echo "==> [obs] examples/observability --smoke (boots cluster, GETs every endpoint)"
  "${PREFIX}-obs/examples/observability" --smoke
}

run_fleet() {
  echo "==> [fleet] standby read fleet under TSan (${FLEET_TESTS})"
  local flags="-fsanitize=thread -g -O1"
  cmake -B "${PREFIX}-fleet" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="${flags}" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread" >/dev/null
  # shellcheck disable=SC2086
  cmake --build "${PREFIX}-fleet" -j "${JOBS}" --target ${FLEET_TESTS}
  ctest --test-dir "${PREFIX}-fleet" --output-on-failure -j "${JOBS}" \
    -R "^($(echo "${FLEET_TESTS}" | tr ' ' '|'))\$"
}

run_persist() {
  echo "==> [persist] durability suite under ASan+UBSan (${PERSIST_TESTS})"
  local asan_flags="-fsanitize=address,undefined -fno-sanitize-recover=all -g -O1"
  cmake -B "${PREFIX}-persist-asan" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DSTRATUS_CHAOS=ON \
    -DCMAKE_CXX_FLAGS="${asan_flags}" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined" >/dev/null
  # shellcheck disable=SC2086
  cmake --build "${PREFIX}-persist-asan" -j "${JOBS}" --target ${PERSIST_TESTS}
  ctest --test-dir "${PREFIX}-persist-asan" --output-on-failure -j "${JOBS}" \
    -R "^($(echo "${PERSIST_TESTS}" | tr ' ' '|'))\$"

  echo "==> [persist] durability suite under TSan (${PERSIST_TESTS})"
  local tsan_flags="-fsanitize=thread -g -O1"
  cmake -B "${PREFIX}-persist-tsan" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DSTRATUS_CHAOS=ON \
    -DCMAKE_CXX_FLAGS="${tsan_flags}" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread" >/dev/null
  # shellcheck disable=SC2086
  cmake --build "${PREFIX}-persist-tsan" -j "${JOBS}" --target ${PERSIST_TESTS}
  ctest --test-dir "${PREFIX}-persist-tsan" --output-on-failure -j "${JOBS}" \
    -R "^($(echo "${PERSIST_TESTS}" | tr ' ' '|'))\$"
}

run_simd() {
  echo "==> [simd] scan-kernel suite under ASan+UBSan (${SIMD_TESTS})"
  local flags="-fsanitize=address,undefined -fno-sanitize-recover=all -g -O1"
  cmake -B "${PREFIX}-simd" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="${flags}" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined" >/dev/null
  # shellcheck disable=SC2086
  cmake --build "${PREFIX}-simd" -j "${JOBS}" --target ${SIMD_TESTS}
  echo "==> [simd] pass 1: forced scalar kernel (STRATUS_FORCE_SCALAR=1)"
  STRATUS_FORCE_SCALAR=1 ctest --test-dir "${PREFIX}-simd" --output-on-failure \
    -j "${JOBS}" -R "^($(echo "${SIMD_TESTS}" | tr ' ' '|'))\$"
  echo "==> [simd] pass 2: runtime dispatch (SWAR / AVX2 where supported)"
  ctest --test-dir "${PREFIX}-simd" --output-on-failure -j "${JOBS}" \
    -R "^($(echo "${SIMD_TESTS}" | tr ' ' '|'))\$"
  echo "==> [simd] pass 3: planner forced to the row path (STRATUS_FORCE_ROWPATH=1)"
  # Every query runs against the row store regardless of IMCS coverage:
  # results must be byte-identical to the columnar passes above. The
  # planner-choice tests assert specific path/reason outcomes, so they are
  # filtered out of this pass (they pin their own overrides).
  STRATUS_FORCE_ROWPATH=1 \
    GTEST_FILTER="-*Planner*:*ForceRowpath*:*StagesVisible*" \
    ctest --test-dir "${PREFIX}-simd" --output-on-failure \
    -j "${JOBS}" -R "^($(echo "${SIMD_TESTS}" | tr ' ' '|'))\$"
}

run_benchsan() {
  echo "==> [benchsan] standby_bench under ASan+UBSan (${BENCH_WORKLOADS})"
  local flags="-fsanitize=address,undefined -fno-sanitize-recover=all -g -O1"
  local dir="${PREFIX}-benchsan"
  cmake -S perfbench -B "${dir}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="${flags}" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined" >/dev/null
  cmake --build "${dir}" -j "${JOBS}" --target standby_bench
  local w out mismatches
  for w in ${BENCH_WORKLOADS}; do
    echo "==> [benchsan] ${w}"
    out="$("${dir}/standby_bench" --workload "${w}" --seed 1 --seconds 1 \
      --trace 0 | tail -n 1)"
    mismatches="$(printf '%s' "${out}" | python3 -c \
      'import json, sys; print(int(json.load(sys.stdin)["oracle_mismatches"]))')"
    if [[ "${mismatches}" != "0" ]]; then
      echo "standby_bench ${w}: ${mismatches} oracle mismatches" >&2
      exit 1
    fi
  done
}

run_perfbench() {
  echo "==> [perfbench] benchmark build + smoke (python3 perfbench/smoke.py)"
  python3 perfbench/smoke.py
}

case "${STAGE}" in
  plain) run_plain ;;
  tsan) run_tsan ;;
  asan) run_asan ;;
  chaos) run_chaos ;;
  obs) run_obs ;;
  fleet) run_fleet ;;
  persist) run_persist ;;
  simd) run_simd ;;
  benchsan) run_benchsan ;;
  perfbench) run_perfbench ;;
  all)
    run_plain
    run_tsan
    run_asan
    run_chaos
    run_obs
    run_fleet
    run_persist
    run_simd
    run_benchsan
    run_perfbench
    ;;
  *)
    echo "unknown stage: ${STAGE} (want all|plain|tsan|asan|chaos|obs|fleet|persist|simd|benchsan|perfbench)" >&2
    exit 2
    ;;
esac

echo "==> CI passed (${STAGE})"
