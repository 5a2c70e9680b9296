#!/usr/bin/env bash
# Repo verification: the tier-1 build-and-test pass, then sanitizer
# builds of the query-kernel and concurrency surfaces:
#   asan  — AddressSanitizer over the query-kernel paths (transition
#           table, taxonomy groups and their group-pair table, the
#           estimator's inner loops under both semantic policies,
#           walk-index compact layout, the single-source sweep's
#           concept-indexed correction row) and the byte-mutation tests
#           of the binary and text loaders.
#   tsan  — ThreadSanitizer over the concurrency surface (pool,
#           concurrent pair cache, batch query engine, metrics registry,
#           query service, snapshot swaps) plus the grouped-vs-virtual
#           equivalence test (flat_kernel_test), which drives
#           multi-thread engines over the shared read-only group tables.
#   bench — smoke-run of the query bench on the small dataset, gated by
#           ci/compare_bench.py (batch results bit-identical between 1
#           and N threads), then the top-k strategies bench, which exits
#           non-zero unless batch top-k equals the serial sweeps bit for
#           bit.
#   metrics — bench smoke with --metrics-out, then the compare_bench
#           metrics checker (required series present, histograms
#           coherent, JSON and Prometheus exports agree).
#   coldstart — the serving-artifact lane (DESIGN.md §10): save/map/query
#           tests under AddressSanitizer (mmap lifetime, checksum
#           rejection, buffered fallback), then the cold-start bench
#           gated by ci/compare_bench.py --coldstart (mapped replica
#           bit-identical, zero heap bytes, parallel builds reproduce
#           the serial fingerprint).
#   walkbuild — the weighted walk-build lane (DESIGN.md §11): the
#           bench_preprocessing --build-only run times WalkIndex::Build
#           on a dense weighted graph with the alias sampler, gated by
#           ci/compare_bench.py --walkbuild (builds bit-identical across
#           thread counts, sampler tables actually allocated).
#   verify — randomized differential sweep (DESIGN.md §9): replays
#           identical queries through the iterative oracle, the MC
#           estimator with and without taxonomy groups, the batch
#           engine, single-source and top-k, checking
#           bit-identity and statistical bands. Smoke = 200 fixed seeds
#           (<60s); extended = 1000 further seeds for the nightly lane.
#           Failing seeds dump replayable artifacts under
#           build/verify-artifacts/.
#   stress — fault-injection + stress harness (DESIGN.md §13): the
#           failpoint registry and per-site tests, then semsim_stress
#           seed sweeps replaying randomized schedules (overload bursts,
#           deadline mixes, cancel storms, mid-flight shutdown, armed
#           failpoints, snapshot swap storms) against the QueryService
#           under both ASan and TSan; every OK response must replay bit
#           for bit and finish inside its deadline. Failing seeds dump replayable
#           schedules under build-{asan,tsan}/stress-artifacts/; replay
#           any of them with semsim_stress --seed=<N>.
#   reload — the hot-swap lane (DESIGN.md §14): snapshot lifetime and
#           swap-during-query tests under ASan (use-after-free /
#           destruction-order half), then the same surface plus the
#           swap-storm stress seeds under TSan (publication-race half).
#   servebench — the serving benchmark's own build and correctness
#           checks (servebench/README.md): its driver self-test, then a
#           20 s run of each gated workload. Each run replays responses
#           against a direct engine and exits non-zero on a mismatch, so
#           a library change that breaks the benchmark's build or its
#           answers fails here rather than in the benchmark run.
#
# Usage: ci/check.sh
#   [--tier1-only|--asan-only|--tsan-only|--bench-smoke|--metrics-smoke|
#    --coldstart|--walkbuild|--verify-smoke|
#    --verify-extended|--stress-smoke|--reload-smoke|--servebench-smoke]
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
MODE="${1:-all}"

tier1() {
  echo "=== tier-1: configure + build + ctest ==="
  cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build -j "${JOBS}"
  ctest --test-dir build --output-on-failure -j "${JOBS}"
}

asan() {
  echo "=== asan: kernel-path tests under AddressSanitizer ==="
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=Debug \
    -DSEMSIM_SANITIZE=address
  cmake --build build-asan -j "${JOBS}" \
    --target flat_kernel_test normalizer_groups_test transition_table_test \
    walk_index_test dynamic_walk_index_test batch_query_test \
    walk_index_corruption_test mapped_file_test differential_test \
    rng_test node_sampler_test mc_test single_source_test \
    text_io_corruption_test
  # single_source_test drives the sweep's correction row (indexed by
  # concept_id) and its live-walk list. text_io_corruption_test feeds
  # byte-mutated text files to the graph, taxonomy, concept-map and
  # dataset loaders.
  ctest --test-dir build-asan --output-on-failure \
    -R 'flat_kernel_test|normalizer_groups_test|transition_table_test|walk_index_test|batch_query_test|walk_index_corruption_test|mapped_file_test|differential_test|rng_test|node_sampler_test|mc_test|single_source_test|text_io_corruption_test'
}

tsan() {
  echo "=== tsan: concurrency tests under ThreadSanitizer ==="
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DSEMSIM_SANITIZE=thread
  # single_source_test covers the walk-partitioned parallel
  # SingleSourceIndex::Build (determinism across 1/2/8 threads) and the
  # scratch-arena pool.
  # node_sampler_test drives the parallel NodeSamplerIndex::Build fill
  # pass (disjoint slot ranges) across thread counts.
  # query_service_test exercises the scheduler thread, the admission
  # queue, promise/future handoff, and cooperative cancellation races.
  # admission_queue_test / future_test / cancel_test cover the queue's
  # multi-producer contention and Close wakeups, promise/future handoff,
  # and shared-token cancellation; failpoint_test arms registry sites
  # concurrently with evaluation; stress_test replays one seed per
  # stress scenario in-process; snapshot_manager_test swaps snapshots
  # while queries run. concurrent_cache_test includes the torn-read
  # stress of the lock-free probe. The same list is the `tsan` test
  # preset's filter in CMakePresets.json.
  cmake --build build-tsan -j "${JOBS}" \
    --target parallel_test batch_query_test concurrent_cache_test \
    flat_kernel_test metrics_test single_source_test node_sampler_test \
    query_service_test admission_queue_test future_test cancel_test \
    failpoint_test stress_test snapshot_manager_test
  ctest --test-dir build-tsan --output-on-failure \
    -R 'parallel_test|batch_query_test|concurrent_cache_test|flat_kernel_test|metrics_test|single_source_test|node_sampler_test|query_service_test|admission_queue_test|future_test|cancel_test|failpoint_test|stress_test|snapshot_manager_test'
}

bench_smoke() {
  echo "=== bench smoke: query bench on the small dataset ==="
  cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build -j "${JOBS}" --target bench_fig4_query_times \
    bench_topk_strategies
  (cd build && ./bench/bench_fig4_query_times --dataset=small)
  python3 ci/compare_bench.py --dir build
  (cd build && ./bench/bench_topk_strategies --threads=2)
}

metrics_smoke() {
  echo "=== metrics smoke: bench with --metrics-out + snapshot checks ==="
  cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build -j "${JOBS}" --target bench_fig4_query_times
  (cd build && ./bench/bench_fig4_query_times --dataset=small \
    --metrics-out=BENCH_metrics.json)
  python3 ci/compare_bench.py --dir build --metrics build/BENCH_metrics.json
}

coldstart() {
  echo "=== coldstart: save/map/query under ASan + zero-copy gate ==="
  # The mmap lifetime and corruption surfaces run instrumented: every
  # section-checksum rejection, truncated-file path, buffered fallback,
  # and map-borrowing query sweep under AddressSanitizer.
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=Debug \
    -DSEMSIM_SANITIZE=address
  cmake --build build-asan -j "${JOBS}" \
    --target walk_index_test walk_index_corruption_test mapped_file_test \
    dynamic_walk_index_test single_source_test
  ctest --test-dir build-asan --output-on-failure \
    -R 'walk_index_test|walk_index_corruption_test|mapped_file_test|dynamic_walk_index_test|single_source_test'
  # The bench runs uninstrumented (RelWithDebInfo): bit-identity flags,
  # memory split, parallel-build sweep; open latencies are reported only.
  cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build -j "${JOBS}" --target bench_preprocessing
  (cd build && ./bench/bench_preprocessing --coldstart-only)
  python3 ci/compare_bench.py --coldstart build/BENCH_coldstart.json
}

walkbuild() {
  echo "=== walkbuild: weighted walk-build determinism gate ==="
  cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build -j "${JOBS}" --target bench_preprocessing
  (cd build && ./bench/bench_preprocessing --build-only)
  python3 ci/compare_bench.py --walkbuild build/BENCH_walkbuild.json
}

verify_smoke() {
  echo "=== verify smoke: 200-seed differential sweep ==="
  cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build -j "${JOBS}" --target semsim_verify
  ./build/src/testing/semsim_verify --start-seed=1 --instances=200 \
    --dump-dir=build/verify-artifacts
}

verify_extended() {
  echo "=== verify extended: 1000-seed differential sweep ==="
  cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build -j "${JOBS}" --target semsim_verify
  # A disjoint seed range, so the nightly lane adds coverage instead of
  # re-running the smoke seeds.
  ./build/src/testing/semsim_verify --start-seed=1000 --instances=1000 \
    --dump-dir=build/verify-artifacts
}

stress_smoke() {
  echo "=== stress smoke: fault-injection + service stress under ASan/TSan ==="
  # ASan half: the failpoint/queue/future/cancel unit surface plus a
  # 35-seed sweep (5 rotations of the 7-scenario matrix).
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=Debug \
    -DSEMSIM_SANITIZE=address
  cmake --build build-asan -j "${JOBS}" \
    --target semsim_stress failpoint_test admission_queue_test \
    future_test cancel_test mapped_file_test
  ctest --test-dir build-asan --output-on-failure \
    -R 'failpoint_test|admission_queue_test|future_test|cancel_test|mapped_file_test'
  ./build-asan/src/testing/semsim_stress --start-seed=1 --instances=35 \
    --dump-dir=build-asan/stress-artifacts
  # TSan half: a shorter sweep — the schedules are identical (pure
  # functions of the seed), the interleavings are what TSan adds.
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DSEMSIM_SANITIZE=thread
  cmake --build build-tsan -j "${JOBS}" --target semsim_stress
  ./build-tsan/src/testing/semsim_stress --start-seed=1 --instances=14 \
    --dump-dir=build-tsan/stress-artifacts
}

reload_smoke() {
  echo "=== reload smoke: snapshot hot-swap under ASan/TSan ==="
  # ASan half: snapshot lifetime, destruction ordering, and the
  # mapped->owned promotion seam. A displaced snapshot freed while a
  # reader still serves from it is a use-after-free here, not a flake.
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=Debug \
    -DSEMSIM_SANITIZE=address
  cmake --build build-asan -j "${JOBS}" \
    --target engine_snapshot_test snapshot_manager_test
  ctest --test-dir build-asan --output-on-failure \
    -R 'engine_snapshot_test|snapshot_manager_test'
  # TSan half: the same surface plus the swap-storm stress seeds
  # (seed % 7 == 6), which race concurrent publishes against live
  # traffic and replay every response against an engine bound to its
  # reported snapshot version.
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DSEMSIM_SANITIZE=thread
  cmake --build build-tsan -j "${JOBS}" \
    --target engine_snapshot_test snapshot_manager_test semsim_stress
  ctest --test-dir build-tsan --output-on-failure \
    -R 'engine_snapshot_test|snapshot_manager_test'
  for s in 6 13 20 27 34 41; do
    ./build-tsan/src/testing/semsim_stress --seed="${s}" \
      --dump-dir=build-tsan/stress-artifacts
  done
}

servebench_smoke() {
  echo "=== servebench smoke: benchmark build, self-test, both workloads ==="
  python3 servebench/run.py --self-test
  python3 servebench/run.py --workload pairs-aminer --seconds 20
  python3 servebench/run.py --workload topk-amazon --seconds 20
}

case "${MODE}" in
  --tier1-only) tier1 ;;
  --asan-only) asan ;;
  --tsan-only) tsan ;;
  --bench-smoke) bench_smoke ;;
  --metrics-smoke|metrics) metrics_smoke ;;
  --coldstart) coldstart ;;
  --walkbuild) walkbuild ;;
  --verify-smoke) verify_smoke ;;
  --verify-extended) verify_extended ;;
  --stress-smoke) stress_smoke ;;
  --reload-smoke) reload_smoke ;;
  --servebench-smoke) servebench_smoke ;;
  all|*) tier1; asan; tsan; bench_smoke; metrics_smoke; coldstart; walkbuild; verify_smoke; stress_smoke; reload_smoke; servebench_smoke ;;
esac

echo "=== all checks passed ==="
