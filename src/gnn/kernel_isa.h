// Per-ISA tables of the epoch kernels' bodies (internal: the kernel entry
// points in nn.h and layers.h, their tests and bench_kernels include it).
//
// Each table holds one instruction set's bodies of the blocked kernels at
// widths 8 and 16, the widths the shipped models use. The entry points
// (Gemm, GemmTransposeA/B, AggregateMeanWithSelf, ScatterMeanWithSelfBackward)
// call the active table, which is picked once per process: AVX-512 (avx512f
// and avx512vl) when the CPU has it, then AVX2, else the baseline x86-64
// bodies. Every body of every table adds each output's terms in ascending
// order of the summed index, starting from +0, with no fused multiply-add,
// so all tables give bitwise equal results.

#ifndef DGCL_GNN_KERNEL_ISA_H_
#define DGCL_GNN_KERNEL_ISA_H_

#include <cstdint>
#include <vector>

#include "gnn/local_graph.h"

namespace dgcl {

enum class Isa { kBaseline, kAvx2, kAvx512 };

struct Kernels {
  using GemmBody = void (*)(const float* a, uint32_t n, uint32_t kdim, const float* b,
                            float* out);
  using GemmTransposeABody = void (*)(const float* a, const float* b, uint32_t rows,
                                      uint32_t adim, float* out);
  using GraphSumBody = void (*)(const LocalGraph& graph, const float* in, float* out);

  const char* name;  // "baseline", "avx2" or "avx512"
  // out [n x W] = a [n x kdim] * b [kdim x W].
  GemmBody gemm8;
  GemmBody gemm16;
  // out [adim x W] = a^T b for a [rows x adim], b [rows x W]; out is zeroed.
  GemmTransposeABody gemm_transpose_a8;
  GemmTransposeABody gemm_transpose_a16;
  // AggregateMeanWithSelf: in = slots [num_slots x W], out [num_compute x W].
  GraphSumBody aggregate_mean_with_self8;
  GraphSumBody aggregate_mean_with_self16;
  // The pull scatter: out[s] = sum of in's rows over the readers of slot s,
  // in = [num_compute x W], out [num_slots x W].
  GraphSumBody sum_readers8;
  GraphSumBody sum_readers16;
};

// The table of `isa`, whether or not this CPU can run it.
const Kernels& KernelTable(Isa isa);

// The ISAs this CPU and build can run, baseline first, widest last.
std::vector<Isa> SupportedIsas();

// The widest supported ISA: the table the entry points use unless pinned.
Isa DispatchedIsa();

// The table the entry points call now.
const Kernels& ActiveKernels();

// Points the entry points at `isa`'s table (which must be supported), for
// tests and benches that compare tables; PinKernelIsa(DispatchedIsa())
// restores the default. Kernels already running keep the table they read.
void PinKernelIsa(Isa isa);

}  // namespace dgcl

#endif  // DGCL_GNN_KERNEL_ISA_H_
