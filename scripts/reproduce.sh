#!/usr/bin/env bash
# Rebuilds everything, runs the full test suite, and regenerates every paper
# table/figure plus the extension benches, writing the reference outputs to
# test_output.txt and bench_output.txt at the repository root.
#
# The tests run from the default (RelWithDebInfo) tree in build/. The benches
# run from a separate Release tree in build-release/: several of them report
# wall-clock times, and at -O2 GCC leaves the baseline kernel loops
# unvectorized, so bench_kernels would time a several times slower baseline.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build
cmake --build build --parallel "$(nproc)"
ctest --test-dir build 2>&1 | tee test_output.txt
cmake -B build-release -DCMAKE_BUILD_TYPE=Release
cmake --build build-release --parallel "$(nproc)"
for b in build-release/bench/*; do
  case "$(basename "$b")" in
    bench_table8_spst_runtime) "$b" --json BENCH_table8.json ;;
    bench_recovery) "$b" --json BENCH_recovery.json ;;
    bench_serving) "$b" --json BENCH_serving.json ;;
    bench_minibatch) "$b" --json BENCH_minibatch.json ;;
    bench_planner_family) "$b" --json BENCH_planner_family.json ;;
    bench_kernels) "$b" --json BENCH_kernels.json ;;
    bench_fig7_main_results) "$b" --trace TRACE_fig7.json ;;
    *) "$b" ;;
  esac
done 2>&1 | tee bench_output.txt
# The headline bench records a full telemetry trace (plus per-dataset cost
# audits, printed into bench_output.txt above); summarize it with the CLI so
# the round-trip importer gets exercised on every reproduction run.
build-release/tools/dgcl_trace summarize TRACE_fig7.json
echo "done: see test_output.txt, bench_output.txt, BENCH_table8.json,"
echo "BENCH_recovery.json (per-phase recovery MTTR"
echo "vs full restart), BENCH_planner_family.json (strategy crossover map),"
echo "BENCH_serving.json (serving-tier tail latency, cache hit rates and"
echo "throughput vs shard count, the mid-load shard-kill contract, the"
echo "replica read-scaling sweep — throughput vs R with byte-identical"
echo "digests — and the kill-one-replica-per-shard-under-load contract),"
echo "BENCH_minibatch.json (batched vs unbatched remote-fetch p99 and"
echo "bytes-on-wire, plus sampled mini-batch training per sampler strategy),"
echo "BENCH_kernels.json (the epoch kernels per ISA table next to peaks)"
echo "and TRACE_fig7.json (Chrome-trace; load it at"
echo "ui.perfetto.dev or summarize with build-release/tools/dgcl_trace)."
