#include "gnn/kernel_isa.h"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "common/logging.h"

// The wide tables need GCC's target pragmas and an x86-64 CPU check; other
// compilers and CPUs build the baseline table alone.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define DGCL_WIDE_KERNELS 1
#else
#define DGCL_WIDE_KERNELS 0
#endif

namespace dgcl {

namespace {

// --- Baseline bodies (baseline x86-64: SSE2, 16 vector registers) ---
//
// Every dense product below adds each output's terms in one fixed order
// (ascending over the summed index, starting from +0) whatever its loop
// shape, so the blocked bodies are bitwise equal to the plain loops. The
// blocked bodies keep a tile of outputs in registers: R rows of a W-wide
// column block, sized so the R * W / 4 SSE accumulators plus the operands
// fit in the 16 vector registers of baseline x86-64.

// out[r][j] = sum over k ascending of a[r][k] * b[k][j], for R rows of `a`
// (row stride `kdim`) against b [kdim x W]; writes R rows of `out` (stride W).
template <uint32_t W, uint32_t R>
void GemmRowTile(const float* a, uint32_t kdim, const float* b, float* out) {
  float acc[R][W] = {};
  for (uint32_t k = 0; k < kdim; ++k) {
    // Operands are copied into locals first: written straight against a
    // and b, the same loop is vectorized over k as an in-order reduction,
    // which is several times slower than this form's lanes over j.
    float ak[R];
    for (uint32_t r = 0; r < R; ++r) {
      ak[r] = a[static_cast<size_t>(r) * kdim + k];
    }
    float bk[W];
    std::memcpy(bk, b + static_cast<size_t>(k) * W, sizeof(bk));
    for (uint32_t r = 0; r < R; ++r) {
      for (uint32_t j = 0; j < W; ++j) {
        acc[r][j] += ak[r] * bk[j];
      }
    }
  }
  for (uint32_t r = 0; r < R; ++r) {
    for (uint32_t j = 0; j < W; ++j) {
      out[static_cast<size_t>(r) * W + j] = acc[r][j];
    }
  }
}

// out [n x W] = a [n x kdim] * b [kdim x W], R rows at a time.
template <uint32_t W, uint32_t R>
void GemmBlocked(const float* a, uint32_t n, uint32_t kdim, const float* b, float* out) {
  uint32_t i = 0;
  for (; i + R <= n; i += R) {
    GemmRowTile<W, R>(a + static_cast<size_t>(i) * kdim, kdim, b, out + static_cast<size_t>(i) * W);
  }
  for (; i < n; ++i) {
    GemmRowTile<W, 1>(a + static_cast<size_t>(i) * kdim, kdim, b, out + static_cast<size_t>(i) * W);
  }
}

// GemmTransposeA's rows are walked in blocks of this many rows of a and b,
// which stay in cache while every output tile passes over them.
constexpr uint32_t kTransposeRowBlock = 64;

// Output rows [i, i + R) of out += a^T b over rows [r0, r1) of a [.. x adim]
// and b [.. x W], r ascending; the tile is read from and written back to
// `out`, so blocks of rows carry it in ascending order.
template <uint32_t W, uint32_t R>
void GemmTransposeATile(const float* a, const float* b, uint32_t adim, uint32_t i, uint32_t r0,
                        uint32_t r1, float* out) {
  float acc[R][W];
  for (uint32_t t = 0; t < R; ++t) {
    for (uint32_t j = 0; j < W; ++j) {
      acc[t][j] = out[static_cast<size_t>(i + t) * W + j];
    }
  }
  for (uint32_t r = r0; r < r1; ++r) {
    const float* arow = a + static_cast<size_t>(r) * adim + i;
    const float* brow = b + static_cast<size_t>(r) * W;
    for (uint32_t t = 0; t < R; ++t) {
      const float ari = arow[t];
      for (uint32_t j = 0; j < W; ++j) {
        acc[t][j] += ari * brow[j];
      }
    }
  }
  for (uint32_t t = 0; t < R; ++t) {
    for (uint32_t j = 0; j < W; ++j) {
      out[static_cast<size_t>(i + t) * W + j] = acc[t][j];
    }
  }
}

// out [adim x W] (zeroed) += a^T b, block by block.
template <uint32_t W, uint32_t R>
void GemmTransposeABlocked(const float* a, const float* b, uint32_t rows, uint32_t adim,
                           float* out) {
  for (uint32_t r0 = 0; r0 < rows; r0 += kTransposeRowBlock) {
    const uint32_t r1 = std::min(rows, r0 + kTransposeRowBlock);
    uint32_t i = 0;
    for (; i + R <= adim; i += R) {
      GemmTransposeATile<W, R>(a, b, adim, i, r0, r1, out);
    }
    for (; i < adim; ++i) {
      GemmTransposeATile<W, 1>(a, b, adim, i, r0, r1, out);
    }
  }
}

// AggregateMeanWithSelf at a fixed width: the row's running sum stays in W
// registers instead of going back to memory after every neighbor. Same adds
// in the same order as the plain loop, so bitwise equal to it.
template <uint32_t W>
void AggregateMeanWithSelfFixed(const LocalGraph& graph, const float* slots, float* out) {
  for (uint32_t i = 0; i < graph.num_compute; ++i) {
    const float* self = slots + static_cast<size_t>(i) * W;  // local vertex i occupies slot i
    auto nbrs = graph.Neighbors(i);
    float acc[W];
    for (uint32_t c = 0; c < W; ++c) {
      acc[c] = self[c];
    }
    for (uint32_t nbr : nbrs) {
      const float* nrow = slots + static_cast<size_t>(nbr) * W;
      for (uint32_t c = 0; c < W; ++c) {
        acc[c] += nrow[c];
      }
    }
    const float inv = 1.0f / (1.0f + nbrs.size());
    float* orow = out + static_cast<size_t>(i) * W;
    for (uint32_t c = 0; c < W; ++c) {
      orow[c] = acc[c] * inv;
    }
  }
}

// out[s] = sum of `rows` over the compute rows that read slot s, in reader
// order from +0, at a fixed width: the sum stays in W registers.
template <uint32_t W>
void SumReadersFixed(const LocalGraph& graph, const float* rows, float* out) {
  for (uint32_t s = 0; s < graph.num_slots; ++s) {
    float acc[W] = {};
    for (uint32_t i : graph.Readers(s)) {
      const float* row = rows + static_cast<size_t>(i) * W;
      for (uint32_t c = 0; c < W; ++c) {
        acc[c] += row[c];
      }
    }
    float* orow = out + static_cast<size_t>(s) * W;
    for (uint32_t c = 0; c < W; ++c) {
      orow[c] = acc[c];
    }
  }
}

constexpr Kernels kBaselineKernels = {
    "baseline",
    GemmBlocked<8, 4>,
    GemmBlocked<16, 2>,
    GemmTransposeABlocked<8, 4>,
    GemmTransposeABlocked<16, 2>,
    AggregateMeanWithSelfFixed<8>,
    AggregateMeanWithSelfFixed<16>,
    SumReadersFixed<8>,
    SumReadersFixed<16>,
};

#if DGCL_WIDE_KERNELS

// --- Wide bodies (AVX2 and AVX-512) ---
//
// Written once with GCC vector types and inlined into each ISA's entry
// functions below, which carry that ISA's target and tile sizes. A W-wide
// row is W / L vectors of L lanes (one zmm per 16 columns under AVX-512, one
// ymm per 8 columns otherwise). Lanes run over output columns and every
// output still adds its terms in ascending order from +0, so each body is
// bitwise equal to the baseline one. Operands are loaded straight from the
// matrix rows: copied through a float array first, AVX2 code reloads a
// vector from two narrower stores and stalls on every k step.

template <uint32_t L>
struct Lanes {
  typedef float Vec __attribute__((vector_size(L * sizeof(float))));
  // The same vector at float alignment, so it can alias any row.
  typedef float RowVec
      __attribute__((vector_size(L * sizeof(float)), aligned(alignof(float)), may_alias));
};

template <uint32_t L>
using Vec = typename Lanes<L>::Vec;

// The L floats at p as a vector lvalue (references, not values: a vector
// passed by value between functions would change the ABI per ISA).
template <uint32_t L>
[[gnu::always_inline]] inline const typename Lanes<L>::RowVec& At(const float* p) {
  return *reinterpret_cast<const typename Lanes<L>::RowVec*>(p);
}
template <uint32_t L>
[[gnu::always_inline]] inline typename Lanes<L>::RowVec& At(float* p) {
  return *reinterpret_cast<typename Lanes<L>::RowVec*>(p);
}

// GemmRowTile with vector lanes: R rows of out = a * b.
template <uint32_t W, uint32_t L, uint32_t R>
[[gnu::always_inline]] inline void GemmRowTileWide(const float* a, uint32_t kdim, const float* b,
                                                   float* out) {
  constexpr uint32_t H = W / L;
  Vec<L> acc[R][H];
  for (uint32_t r = 0; r < R; ++r) {
    for (uint32_t h = 0; h < H; ++h) {
      acc[r][h] = Vec<L>{};
    }
  }
  for (uint32_t k = 0; k < kdim; ++k) {
    Vec<L> bk[H];
    for (uint32_t h = 0; h < H; ++h) {
      bk[h] = At<L>(b + static_cast<size_t>(k) * W + h * L);
    }
    for (uint32_t r = 0; r < R; ++r) {
      const float ark = a[static_cast<size_t>(r) * kdim + k];
      for (uint32_t h = 0; h < H; ++h) {
        acc[r][h] += ark * bk[h];
      }
    }
  }
  for (uint32_t r = 0; r < R; ++r) {
    for (uint32_t h = 0; h < H; ++h) {
      At<L>(out + static_cast<size_t>(r) * W + h * L) = acc[r][h];
    }
  }
}

template <uint32_t W, uint32_t L, uint32_t R>
[[gnu::always_inline]] inline void GemmWide(const float* a, uint32_t n, uint32_t kdim,
                                            const float* b, float* out) {
  uint32_t i = 0;
  for (; i + R <= n; i += R) {
    GemmRowTileWide<W, L, R>(a + static_cast<size_t>(i) * kdim, kdim, b,
                             out + static_cast<size_t>(i) * W);
  }
  for (; i < n; ++i) {
    GemmRowTileWide<W, L, 1>(a + static_cast<size_t>(i) * kdim, kdim, b,
                             out + static_cast<size_t>(i) * W);
  }
}

// GemmTransposeATile with vector lanes.
template <uint32_t W, uint32_t L, uint32_t R>
[[gnu::always_inline]] inline void GemmTransposeATileWide(const float* a, const float* b,
                                                          uint32_t adim, uint32_t i, uint32_t r0,
                                                          uint32_t r1, float* out) {
  constexpr uint32_t H = W / L;
  Vec<L> acc[R][H];
  for (uint32_t t = 0; t < R; ++t) {
    for (uint32_t h = 0; h < H; ++h) {
      acc[t][h] = At<L>(out + static_cast<size_t>(i + t) * W + h * L);
    }
  }
  for (uint32_t r = r0; r < r1; ++r) {
    const float* arow = a + static_cast<size_t>(r) * adim + i;
    Vec<L> brow[H];
    for (uint32_t h = 0; h < H; ++h) {
      brow[h] = At<L>(b + static_cast<size_t>(r) * W + h * L);
    }
    for (uint32_t t = 0; t < R; ++t) {
      const float ari = arow[t];
      for (uint32_t h = 0; h < H; ++h) {
        acc[t][h] += ari * brow[h];
      }
    }
  }
  for (uint32_t t = 0; t < R; ++t) {
    for (uint32_t h = 0; h < H; ++h) {
      At<L>(out + static_cast<size_t>(i + t) * W + h * L) = acc[t][h];
    }
  }
}

template <uint32_t W, uint32_t L, uint32_t R>
[[gnu::always_inline]] inline void GemmTransposeAWide(const float* a, const float* b,
                                                      uint32_t rows, uint32_t adim, float* out) {
  for (uint32_t r0 = 0; r0 < rows; r0 += kTransposeRowBlock) {
    const uint32_t r1 = std::min(rows, r0 + kTransposeRowBlock);
    uint32_t i = 0;
    for (; i + R <= adim; i += R) {
      GemmTransposeATileWide<W, L, R>(a, b, adim, i, r0, r1, out);
    }
    for (; i < adim; ++i) {
      GemmTransposeATileWide<W, L, 1>(a, b, adim, i, r0, r1, out);
    }
  }
}

template <uint32_t W, uint32_t L>
[[gnu::always_inline]] inline void AggregateMeanWithSelfWide(const LocalGraph& graph,
                                                             const float* slots, float* out) {
  constexpr uint32_t H = W / L;
  for (uint32_t i = 0; i < graph.num_compute; ++i) {
    auto nbrs = graph.Neighbors(i);
    Vec<L> acc[H];
    for (uint32_t h = 0; h < H; ++h) {
      acc[h] = At<L>(slots + static_cast<size_t>(i) * W + h * L);
    }
    for (uint32_t nbr : nbrs) {
      for (uint32_t h = 0; h < H; ++h) {
        acc[h] += At<L>(slots + static_cast<size_t>(nbr) * W + h * L);
      }
    }
    const float inv = 1.0f / (1.0f + nbrs.size());
    for (uint32_t h = 0; h < H; ++h) {
      At<L>(out + static_cast<size_t>(i) * W + h * L) = acc[h] * inv;
    }
  }
}

template <uint32_t W, uint32_t L>
[[gnu::always_inline]] inline void SumReadersWide(const LocalGraph& graph, const float* rows,
                                                  float* out) {
  constexpr uint32_t H = W / L;
  for (uint32_t s = 0; s < graph.num_slots; ++s) {
    Vec<L> acc[H];
    for (uint32_t h = 0; h < H; ++h) {
      acc[h] = Vec<L>{};
    }
    for (uint32_t i : graph.Readers(s)) {
      for (uint32_t h = 0; h < H; ++h) {
        acc[h] += At<L>(rows + static_cast<size_t>(i) * W + h * L);
      }
    }
    for (uint32_t h = 0; h < H; ++h) {
      At<L>(out + static_cast<size_t>(s) * W + h * L) = acc[h];
    }
  }
}

// Each ISA's entry functions. fp-contract=off is set here, in the source,
// because the target makes FMA available and GCC would otherwise fuse
// a * b + c (its default outside ISO C), which changes the sums' bits; the
// project's -ffp-contract=off does not reach builds that compile src/ with
// their own flags.

#pragma GCC push_options
#pragma GCC target("avx512f,avx512vl")
#pragma GCC optimize("fp-contract=off")

void Avx512Gemm8(const float* a, uint32_t n, uint32_t kdim, const float* b, float* out) {
  GemmWide<8, 8, 8>(a, n, kdim, b, out);
}
void Avx512Gemm16(const float* a, uint32_t n, uint32_t kdim, const float* b, float* out) {
  GemmWide<16, 16, 12>(a, n, kdim, b, out);
}
void Avx512GemmTransposeA8(const float* a, const float* b, uint32_t rows, uint32_t adim,
                           float* out) {
  GemmTransposeAWide<8, 8, 16>(a, b, rows, adim, out);
}
void Avx512GemmTransposeA16(const float* a, const float* b, uint32_t rows, uint32_t adim,
                            float* out) {
  GemmTransposeAWide<16, 16, 16>(a, b, rows, adim, out);
}
void Avx512AggregateMeanWithSelf8(const LocalGraph& graph, const float* slots, float* out) {
  AggregateMeanWithSelfWide<8, 8>(graph, slots, out);
}
void Avx512AggregateMeanWithSelf16(const LocalGraph& graph, const float* slots, float* out) {
  AggregateMeanWithSelfWide<16, 16>(graph, slots, out);
}
void Avx512SumReaders8(const LocalGraph& graph, const float* rows, float* out) {
  SumReadersWide<8, 8>(graph, rows, out);
}
void Avx512SumReaders16(const LocalGraph& graph, const float* rows, float* out) {
  SumReadersWide<16, 16>(graph, rows, out);
}

#pragma GCC pop_options

#pragma GCC push_options
#pragma GCC target("avx2")
#pragma GCC optimize("fp-contract=off")

void Avx2Gemm8(const float* a, uint32_t n, uint32_t kdim, const float* b, float* out) {
  GemmWide<8, 8, 12>(a, n, kdim, b, out);
}
void Avx2Gemm16(const float* a, uint32_t n, uint32_t kdim, const float* b, float* out) {
  GemmWide<16, 8, 6>(a, n, kdim, b, out);
}
void Avx2GemmTransposeA8(const float* a, const float* b, uint32_t rows, uint32_t adim,
                         float* out) {
  GemmTransposeAWide<8, 8, 8>(a, b, rows, adim, out);
}
void Avx2GemmTransposeA16(const float* a, const float* b, uint32_t rows, uint32_t adim,
                          float* out) {
  GemmTransposeAWide<16, 8, 6>(a, b, rows, adim, out);
}
void Avx2AggregateMeanWithSelf8(const LocalGraph& graph, const float* slots, float* out) {
  AggregateMeanWithSelfWide<8, 8>(graph, slots, out);
}
void Avx2AggregateMeanWithSelf16(const LocalGraph& graph, const float* slots, float* out) {
  AggregateMeanWithSelfWide<16, 8>(graph, slots, out);
}
void Avx2SumReaders8(const LocalGraph& graph, const float* rows, float* out) {
  SumReadersWide<8, 8>(graph, rows, out);
}
void Avx2SumReaders16(const LocalGraph& graph, const float* rows, float* out) {
  SumReadersWide<16, 8>(graph, rows, out);
}

#pragma GCC pop_options

constexpr Kernels kAvx512Kernels = {
    "avx512",
    Avx512Gemm8,
    Avx512Gemm16,
    Avx512GemmTransposeA8,
    Avx512GemmTransposeA16,
    Avx512AggregateMeanWithSelf8,
    Avx512AggregateMeanWithSelf16,
    Avx512SumReaders8,
    Avx512SumReaders16,
};

constexpr Kernels kAvx2Kernels = {
    "avx2",
    Avx2Gemm8,
    Avx2Gemm16,
    Avx2GemmTransposeA8,
    Avx2GemmTransposeA16,
    Avx2AggregateMeanWithSelf8,
    Avx2AggregateMeanWithSelf16,
    Avx2SumReaders8,
    Avx2SumReaders16,
};

#endif  // DGCL_WIDE_KERNELS

bool CpuSupports(Isa isa) {
  switch (isa) {
    case Isa::kBaseline:
      return true;
#if DGCL_WIDE_KERNELS
    case Isa::kAvx2:
      __builtin_cpu_init();
      return __builtin_cpu_supports("avx2");
    case Isa::kAvx512:
      __builtin_cpu_init();
      return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512vl");
#endif
    default:
      return false;
  }
}

std::atomic<const Kernels*>& ActiveTable() {
  static std::atomic<const Kernels*> active{&KernelTable(DispatchedIsa())};
  return active;
}

}  // namespace

const Kernels& KernelTable(Isa isa) {
  switch (isa) {
#if DGCL_WIDE_KERNELS
    case Isa::kAvx2:
      return kAvx2Kernels;
    case Isa::kAvx512:
      return kAvx512Kernels;
#endif
    default:
      return kBaselineKernels;
  }
}

std::vector<Isa> SupportedIsas() {
  std::vector<Isa> isas;
  for (Isa isa : {Isa::kBaseline, Isa::kAvx2, Isa::kAvx512}) {
    if (CpuSupports(isa)) {
      isas.push_back(isa);
    }
  }
  return isas;
}

Isa DispatchedIsa() {
  static const Isa widest = SupportedIsas().back();
  return widest;
}

const Kernels& ActiveKernels() { return *ActiveTable().load(std::memory_order_relaxed); }

void PinKernelIsa(Isa isa) {
  DGCL_CHECK(CpuSupports(isa)) << "this CPU cannot run the " << KernelTable(isa).name
                               << " kernels";
  ActiveTable().store(&KernelTable(isa), std::memory_order_relaxed);
}

}  // namespace dgcl
