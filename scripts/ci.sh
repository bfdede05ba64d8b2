#!/usr/bin/env bash
# The full CI gate, in tiers:
#
#   1. build + unit tier      ctest -L unit   (fast; every functional test)
#   2. planner tier           ctest -L planner (the planner-family suites:
#                             conformance over every strategy,
#                             SPST, baselines, determinism, properties, and
#                             the dgcl_plan CLI's flag checks and strategy
#                             list — a subset of `unit`, runnable alone when
#                             iterating on planners)
#   3. serving tier           ctest -L serving (the graph service tier:
#                             the relation as shard map, bounded-queue backpressure,
#                             the LRU cache's reference model, shard-death
#                             fail-fast, and sampler determinism across pool
#                             widths — a subset of `unit`, runnable alone
#                             when iterating on src/service/)
#   4. sampling tier          ctest -L sampling (the sampler family and the
#                             mini-batch training path: conformance over
#                             every strategy, determinism across pool
#                             widths, loss-trajectory acceptance, checkpoint
#                             recovery, and cross-request fetch batching — a
#                             subset of `serving`, runnable alone when
#                             iterating on samplers or the trainer feed)
#   5. replicas tier          ctest -L replicas (the shard-replica layer:
#                             byte-identity conformance over R × pool
#                             width, replica-aware failover and
#                             last-replica death, and the serving
#                             kill-schedule fuzz — a subset of serving+fuzz,
#                             runnable alone when iterating on replica_set
#                             or the kill/drain paths)
#   6. kernels tier           ctest -L kernels (the bitwise kernel contract:
#                             nn_test, layers_test and trainer_test's pinned
#                             loss trajectory, each on every kernel table the
#                             CPU supports — a subset of `unit`, runnable
#                             alone when iterating on src/gnn/kernel_isa.cc)
#   7. fuzz tier              ctest -L fuzz   (fault-schedule fuzzing, fixed
#                             seed budget so wall time is bounded and every
#                             run covers the same schedules)
#   8. sanitizers             scripts/check_sanitizers.sh (TSan + ASan trees
#                             over the concurrency-sensitive suites, with a
#                             reduced fuzz budget; TSan is the gate for the
#                             engine's ready/done-flag protocol, the serving
#                             tier's MPMC queues, the replica router and
#                             kill/drain handoff, and the fetch-batching
#                             window's leader/joiner handoff)
#
# Usage: scripts/ci.sh [unit|planner|serving|sampling|replicas|kernels|fuzz|sanitizers|all]   (default: all)
# Env:   DGCL_CI_FUZZ_SEEDS  fuzz-tier seed budget (default 200)
set -euo pipefail
cd "$(dirname "$0")/.."

TIER="${1:-all}"

build() {
  cmake -B build -S . -DCMAKE_CXX_FLAGS=-Werror >/dev/null
  cmake --build build -j "$(nproc)"
}

unit_tier() {
  echo "=== CI tier: unit ==="
  ctest --test-dir build -L unit --output-on-failure -j "$(nproc)"
}

planner_tier() {
  echo "=== CI tier: planner ==="
  ctest --test-dir build -L planner --output-on-failure -j "$(nproc)"
}

serving_tier() {
  echo "=== CI tier: serving ==="
  ctest --test-dir build -L serving --output-on-failure -j "$(nproc)"
}

sampling_tier() {
  echo "=== CI tier: sampling ==="
  ctest --test-dir build -L sampling --output-on-failure -j "$(nproc)"
}

replicas_tier() {
  echo "=== CI tier: replicas (DGCL_CI_FUZZ_SEEDS=${DGCL_CI_FUZZ_SEEDS:-200}) ==="
  DGCL_FUZZ_SEEDS="${DGCL_CI_FUZZ_SEEDS:-200}" \
    ctest --test-dir build -L replicas --output-on-failure -j "$(nproc)"
}

kernels_tier() {
  echo "=== CI tier: kernels ==="
  ctest --test-dir build -L kernels --output-on-failure -j "$(nproc)"
}

fuzz_tier() {
  echo "=== CI tier: fuzz (DGCL_CI_FUZZ_SEEDS=${DGCL_CI_FUZZ_SEEDS:-200}) ==="
  DGCL_FUZZ_SEEDS="${DGCL_CI_FUZZ_SEEDS:-200}" \
    ctest --test-dir build -L fuzz --output-on-failure
}

sanitizer_tier() {
  echo "=== CI tier: sanitizers ==="
  scripts/check_sanitizers.sh both
}

case "$TIER" in
  unit)
    build
    unit_tier
    ;;
  planner)
    build
    planner_tier
    ;;
  serving)
    build
    serving_tier
    ;;
  sampling)
    build
    sampling_tier
    ;;
  replicas)
    build
    replicas_tier
    ;;
  kernels)
    build
    kernels_tier
    ;;
  fuzz)
    build
    fuzz_tier
    ;;
  sanitizers) sanitizer_tier ;;
  all)
    build
    unit_tier
    fuzz_tier
    sanitizer_tier
    ;;
  *)
    echo "usage: $0 [unit|planner|serving|sampling|replicas|kernels|fuzz|sanitizers|all]" >&2
    exit 2
    ;;
esac
echo "=== CI: OK (${TIER}) ==="
