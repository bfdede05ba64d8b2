#!/usr/bin/env bash
# Builds the repo twice — under ThreadSanitizer and AddressSanitizer — and
# runs the concurrency-sensitive test binaries under each: the thread pool,
# the multilevel partitioner (coarse graphs are contracted in row blocks on
# the shared pool) and the hierarchical partitioner (one multilevel call per
# machine group on the same pool, so contraction fans out nested), the
# planner determinism and property suites (the class builder, plan
# compiler and simulator fan work out on the shared pool), the allgather
# engine, the transport/coordination layer (connection retry and
# fault-injection state shared across device threads), the straggler and
# dead-peer timeout paths, the simulator (fans work out on the shared pool)
# and the trainer (each epoch is one device program: every device thread runs
# its whole epoch and joins the engine's passes in place, and the engine's
# persistent threads spin and then park between programs) with the layers it
# drives and their local graphs (ASan+UBSan is the gate for the caches a
# layer keeps between SetInput, Update and Backward, and for the indexing of
# the reader lists the backward scatter pulls through), the
# dense kernels (nn_test and layers_test run their bitwise sweeps on every
# kernel table the CPU supports: ASan is the gate for each table's row and
# column tails, the wide bodies' vector loads and stores included), the
# engine-trace cost audit, the lock-free
# telemetry recorder, and the elastic-recovery protocol (engine
# post-mortems, mid-epoch kills, re-plan + resume) including a reduced-budget slice of the
# fault-schedule fuzz suite (DGCL_FUZZ_SEEDS below; the full 200-seed sweep
# runs in the plain build via ctest -L fuzz), and the serving tier (TSan is
# the gate for the bounded MPMC request/response queues, the concurrent
# sampler pools sharing the feature cache, KillShard racing Submit, and the
# cross-request fetch-batching window — leader/joiner handoff on the
# condition variable, batch close racing late joiners, and the atomic wire
# accounting — exercised by minibatch_trainer_test's concurrent-coalescing
# case and the conformance suite's pooled fleets). The replica layer rides
# the same gate: replica_conformance_test and the serving kill-schedule fuzz
# put the lock-free router (alive-mask/cursor/routed atomics) under
# concurrent Submit while KillReplica drains queues onto survivors, and
# fetch_batcher_test hammers the gap-close leader loop directly.
# TSan is the gate for the engine's flag protocol. There are no staging
# buffers: a sender writes an op's rows straight into the receiver's slot
# rows, after its ready wait saw the receiver's progress (the receiver has
# entered the pass, published its slot matrix and finished the earlier
# rounds), and then stores pass + 1 into op_done, which the receiver loads
# before it reads those rows. TSan also gates the park/wake handshake (a
# flag wait that outlasts its short spin parks on the writer device's
# condvar; the writer, after its flag store, reads the parked count and
# takes that mutex to notify when a waiter is parked; Fail wakes every
# condvar): the flag stores, the parked-count increment and both re-checks
# are seq_cst atomics with no atomic_thread_fence, which TSan models. Both
# trees configure with -Werror, as scripts/ci.sh does, so a -Wtsan warning
# (GCC's note that TSan cannot model a fence) fails the build. Stress
# covers the handshake too: a lost wake-up shows as a wait that runs out its
# deadline, and coordination_test (across GPU counts and with a dead peer)
# and device_program_test under load (fast devices run into the next pass
# while a straggler is still in the last one; a device is killed with a busy
# thread per core) would fail on it, in this script's trees and in the
# plain build.
# ASan is also the gate of the compiled-plan check (compiled_plan_test) and
# the plan-file loader (plan_io_test): AllgatherEngine::Create runs that
# check on every plan it arms, including plans read from files.
# Separate build trees (build-tsan/, build-asan/) so the main build stays
# untouched.
#
# Usage: scripts/check_sanitizers.sh [thread|address]   (default: both)
set -euo pipefail
cd "$(dirname "$0")/.."

TESTS_REGEX='compiled_plan_test|plan_io_test|thread_pool_test|multilevel_test|hierarchical_test|plan_determinism_test|planner_property_test|planner_conformance_test|spst_test|transport_test|allgather_engine_test|coordination_test|straggler_test|network_sim_test|epoch_sim_test|cost_audit_test|trainer_test|device_program_test|layers_test|local_graph_test|nn_test|telemetry_test|recovery_test|service_test|sampler_determinism_test|sampler_conformance_test|minibatch_trainer_test|replica_conformance_test|fetch_batcher_test|fault_schedule_fuzz_test'

# Sanitizer runs are 5-20x slower; trim the fuzz budget accordingly.
export DGCL_FUZZ_SEEDS="${DGCL_FUZZ_SEEDS:-25}"

run_one() {
  local kind="$1"
  local dir="build-${kind/thread/tsan}"
  dir="${dir/address/asan}"
  echo "=== ${kind} sanitizer: configuring ${dir} ==="
  cmake -B "$dir" -S . -DDGCL_SANITIZE="$kind" -DCMAKE_CXX_FLAGS=-Werror >/dev/null
  cmake --build "$dir" -j "$(nproc)" --target \
    compiled_plan_test plan_io_test \
    thread_pool_test multilevel_test hierarchical_test \
    plan_determinism_test planner_property_test \
    planner_conformance_test spst_test \
    transport_test allgather_engine_test coordination_test straggler_test \
    network_sim_test epoch_sim_test cost_audit_test trainer_test device_program_test \
    layers_test local_graph_test nn_test \
    telemetry_test recovery_test service_test sampler_determinism_test \
    sampler_conformance_test \
    minibatch_trainer_test replica_conformance_test fetch_batcher_test \
    fault_schedule_fuzz_test
  echo "=== ${kind} sanitizer: running tests ==="
  ctest --test-dir "$dir" -R "$TESTS_REGEX" --output-on-failure
  echo "=== ${kind} sanitizer: OK ==="
}

case "${1:-both}" in
  thread) run_one thread ;;
  address) run_one address ;;
  both)
    run_one thread
    run_one address
    ;;
  *)
    echo "usage: $0 [thread|address]" >&2
    exit 2
    ;;
esac
