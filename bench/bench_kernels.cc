// The epoch's dense kernels at their train-orkut-4dev shapes, once per
// kernel table this CPU supports (gnn/kernel_isa.h), next to measured peaks.
//
// Set-up is the perfbench workload's: the Com-Orkut stand-in on the 4-GPU
// paper topology, one device graph per thread (about 16,384 compute rows
// each), a GCN of 64 -> 16 -> 16 with an 8-class head. Four threads run each
// kernel at once through its public entry point, as the epoch's device
// threads do; a repetition takes as long as its slowest thread, and a
// kernel's time is the median of kReps repetitions.
//
// Products report GFLOP/s (one multiply and one add per term) against a
// register-only multiply + add loop built for the same ISA, four threads at
// once. Aggregation, scatter and ReLU report GB/s (rows and indices read,
// rows written, counted once) against memcpy of a kMemcpyBytes buffer per
// thread, counting its reads and writes. Each wide kernel's speed-up is
// against the baseline table; an entry that is the baseline body says so.
//
// Usage: bench_kernels [--json BENCH_kernels.json]

#include <algorithm>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "common/rng.h"
#include "dgcl/dgcl.h"
#include "gnn/kernel_isa.h"
#include "gnn/layers.h"
#include "gnn/nn.h"

namespace dgcl {
namespace {

constexpr uint32_t kDevices = 4;
constexpr uint32_t kInDim = 64;
constexpr uint32_t kHidden = 16;
constexpr uint32_t kClasses = 8;
constexpr int kReps = 31;
constexpr size_t kMemcpyBytes = size_t{4} << 20;

// One device's inputs at the epoch's shapes.
struct DeviceData {
  LocalGraph graph;
  EmbeddingMatrix agg0;      // layer 0's aggregate [n x 64]
  EmbeddingMatrix h16;       // a hidden activation [n x 16]
  EmbeddingMatrix slots16;   // layer 1's slots [num_slots x 16]
  EmbeddingMatrix grad16;    // a gradient [n x 16]
  EmbeddingMatrix grad8;     // the head's gradient [n x 8]
  EmbeddingMatrix w0;        // [64 x 16]
  EmbeddingMatrix w1;        // [16 x 16]
  EmbeddingMatrix w_head;    // [16 x 8]
  EmbeddingMatrix relu_x;    // [n x 16]
  EmbeddingMatrix mask16;
};

EmbeddingMatrix Uniform(uint32_t rows, uint32_t dim, Rng& rng) {
  EmbeddingMatrix m = EmbeddingMatrix::Zero(rows, dim);
  for (float& x : m.data) {
    x = rng.UniformFloat(-1.0f, 1.0f);
  }
  return m;
}

std::vector<DeviceData> MakeDevices() {
  const Dataset dataset = MakeDataset(DatasetId::kComOrkut, 64);
  auto ctx = DgclContext::Init(BuildPaperTopology(kDevices));
  DGCL_CHECK(ctx.ok()) << ctx.status().ToString();
  const Status built = ctx->BuildCommInfo(dataset.graph);
  DGCL_CHECK(built.ok()) << built.ToString();
  std::vector<DeviceData> devices(kDevices);
  Rng rng(7);
  for (uint32_t d = 0; d < kDevices; ++d) {
    auto graph = ctx->BuildDeviceGraph(d);
    DGCL_CHECK(graph.ok()) << graph.status().ToString();
    DeviceData& dev = devices[d];
    dev.graph = std::move(*graph);
    const uint32_t n = dev.graph.num_compute;
    dev.agg0 = Uniform(n, kInDim, rng);
    dev.h16 = Uniform(n, kHidden, rng);
    dev.slots16 = Uniform(dev.graph.num_slots, kHidden, rng);
    dev.grad16 = Uniform(n, kHidden, rng);
    dev.grad8 = Uniform(n, kClasses, rng);
    dev.w0 = Uniform(kInDim, kHidden, rng);
    dev.w1 = Uniform(kHidden, kHidden, rng);
    dev.w_head = Uniform(kHidden, kClasses, rng);
    dev.relu_x = dev.h16;
    ReluInPlace(dev.relu_x, dev.mask16);
  }
  return devices;
}

// Runs `body(d)` on kDevices threads at once, kReps times; returns the
// median over repetitions of the slowest thread's seconds.
double TimeOnAllDevices(const std::function<void(uint32_t)>& body) {
  std::vector<std::vector<double>> seconds(kDevices, std::vector<double>(kReps));
  std::barrier sync(kDevices);
  auto run = [&](uint32_t d) {
    for (int rep = 0; rep < kReps; ++rep) {
      sync.arrive_and_wait();
      const auto start = std::chrono::steady_clock::now();
      body(d);
      seconds[d][rep] = std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
                            .count();
    }
  };
  std::vector<std::thread> threads;
  for (uint32_t d = 1; d < kDevices; ++d) {
    threads.emplace_back(run, d);
  }
  run(0);
  for (std::thread& t : threads) {
    t.join();
  }
  std::vector<double> slowest(kReps, 0.0);
  for (int rep = 0; rep < kReps; ++rep) {
    for (uint32_t d = 0; d < kDevices; ++d) {
      slowest[rep] = std::max(slowest[rep], seconds[d][rep]);
    }
  }
  std::nth_element(slowest.begin(), slowest.begin() + kReps / 2, slowest.end());
  return slowest[kReps / 2];
}

// --- Peaks ---

template <uint32_t L>
struct Lanes {
  typedef float Vec __attribute__((vector_size(L * sizeof(float))));
};
template <uint32_t L>
using Vec = typename Lanes<L>::Vec;

constexpr uint32_t kPeakChains = 12;
constexpr uint64_t kPeakIters = 4'000'000;

// kPeakChains independent chains of a multiply and then an add (separate
// instructions, as in the kernels: the project builds with
// -ffp-contract=off), enough to cover both latencies; the returned sum keeps
// the loop live.
template <uint32_t L>
[[gnu::always_inline]] inline float MulAddChains(uint64_t iters, float seed) {
  constexpr uint32_t kChains = kPeakChains;
  Vec<L> acc[kChains];
  for (uint32_t c = 0; c < kChains; ++c) {
    acc[c] = Vec<L>{} + seed * static_cast<float>(c + 1);
  }
  const Vec<L> scale = Vec<L>{} + 0.999999f;
  const Vec<L> shift = Vec<L>{} + 1e-6f;
  for (uint64_t i = 0; i < iters; ++i) {
    for (uint32_t c = 0; c < kChains; ++c) {
      acc[c] = acc[c] * scale + shift;
    }
  }
  float sum = 0.0f;
  for (uint32_t c = 0; c < kChains; ++c) {
    for (uint32_t l = 0; l < L; ++l) {
      sum += acc[c][l];
    }
  }
  return sum;
}
float PeakBaseline(float seed) { return MulAddChains<4>(kPeakIters, seed); }
__attribute__((target("avx2"))) float PeakAvx2(float seed) {
  return MulAddChains<8>(kPeakIters, seed);
}
__attribute__((target("avx512f"))) float PeakAvx512(float seed) {
  return MulAddChains<16>(kPeakIters, seed);
}

double PeakGflops(Isa isa) {
  float (*peak)(float) = isa == Isa::kAvx512 ? PeakAvx512
                         : isa == Isa::kAvx2 ? PeakAvx2
                                             : PeakBaseline;
  const double lanes = isa == Isa::kAvx512 ? 16 : isa == Isa::kAvx2 ? 8 : 4;
  std::vector<float> sums(kDevices);
  const double s = TimeOnAllDevices([&](uint32_t d) { sums[d] = peak(1.0f + d); });
  DGCL_CHECK(std::isfinite(sums[0]));  // the sums are used, so the loops stay
  return 2.0 * kDevices * kPeakIters * kPeakChains * lanes / s / 1e9;
}

double MemcpyGbps() {
  std::vector<std::vector<char>> src(kDevices, std::vector<char>(kMemcpyBytes, 1));
  std::vector<std::vector<char>> dst(kDevices, std::vector<char>(kMemcpyBytes, 0));
  const double s = TimeOnAllDevices(
      [&](uint32_t d) { std::memcpy(dst[d].data(), src[d].data(), kMemcpyBytes); });
  return 2.0 * kDevices * kMemcpyBytes / s / 1e9;
}

// --- Kernels ---

struct KernelCase {
  std::string name;
  std::string shape;
  bool flops;  // GFLOP/s (else GB/s)
  // Work of device d's call: flops or bytes.
  std::function<double(const DeviceData&)> work;
  std::function<void(DeviceData&)> run;
  // The table entry the case times, to tell a wide body from the baseline one.
  std::function<const void*(const Kernels&)> entry;
};

double GemmFlops(uint64_t n, uint64_t k, uint64_t m) { return 2.0 * n * k * m; }

std::vector<KernelCase> Cases() {
  using D = const DeviceData&;
  auto n = [](D d) -> uint64_t { return d.graph.num_compute; };
  auto entry = [](auto field) {
    return [field](const Kernels& k) { return reinterpret_cast<const void*>(k.*field); };
  };
  // The ReLU pair has one body for every ISA: memory-bound, its AVX2 and
  // AVX-512 bodies measured no faster, so no table carries one.
  auto no_entry = [](const Kernels&) -> const void* { return nullptr; };
  std::vector<KernelCase> cases;
  cases.push_back({"Gemm", "n×64 · 64×16 (layer 0)", true,
                   [=](D d) { return GemmFlops(n(d), kInDim, kHidden); },
                   [](DeviceData& d) {
                     EmbeddingMatrix out;
                     Gemm(d.agg0, d.w0, out);
                   },
                   entry(&Kernels::gemm16)});
  cases.push_back({"Gemm", "n×16 · 16×16 (layer 1)", true,
                   [=](D d) { return GemmFlops(n(d), kHidden, kHidden); },
                   [](DeviceData& d) {
                     EmbeddingMatrix out;
                     Gemm(d.h16, d.w1, out);
                   },
                   entry(&Kernels::gemm16)});
  cases.push_back({"Gemm", "n×16 · 16×8 (head)", true,
                   [=](D d) { return GemmFlops(n(d), kHidden, kClasses); },
                   [](DeviceData& d) {
                     EmbeddingMatrix out;
                     Gemm(d.h16, d.w_head, out);
                   },
                   entry(&Kernels::gemm8)});
  cases.push_back({"GemmTransposeA", "(n×64)ᵀ · n×16 (layer 0 dW)", true,
                   [=](D d) { return GemmFlops(n(d), kInDim, kHidden); },
                   [](DeviceData& d) {
                     EmbeddingMatrix out;
                     GemmTransposeA(d.agg0, d.grad16, out);
                   },
                   entry(&Kernels::gemm_transpose_a16)});
  cases.push_back({"GemmTransposeA", "(n×16)ᵀ · n×16 (layer 1 dW)", true,
                   [=](D d) { return GemmFlops(n(d), kHidden, kHidden); },
                   [](DeviceData& d) {
                     EmbeddingMatrix out;
                     GemmTransposeA(d.h16, d.grad16, out);
                   },
                   entry(&Kernels::gemm_transpose_a16)});
  cases.push_back({"GemmTransposeA", "(n×16)ᵀ · n×8 (head dW)", true,
                   [=](D d) { return GemmFlops(n(d), kHidden, kClasses); },
                   [](DeviceData& d) {
                     EmbeddingMatrix out;
                     GemmTransposeA(d.h16, d.grad8, out);
                   },
                   entry(&Kernels::gemm_transpose_a8)});
  cases.push_back({"GemmTransposeB", "n×16 · (16×16)ᵀ (layer 1 dX)", true,
                   [=](D d) { return GemmFlops(n(d), kHidden, kHidden); },
                   [](DeviceData& d) {
                     EmbeddingMatrix out;
                     GemmTransposeB(d.grad16, d.w1, out);
                   },
                   entry(&Kernels::gemm16)});
  cases.push_back({"GemmTransposeB", "n×8 · (16×8)ᵀ (head dX)", true,
                   [=](D d) { return GemmFlops(n(d), kClasses, kHidden); },
                   [](DeviceData& d) {
                     EmbeddingMatrix out;
                     GemmTransposeB(d.grad8, d.w_head, out);
                   },
                   entry(&Kernels::gemm16)});
  // Rows read (self and neighbors), neighbor ids, rows written.
  cases.push_back({"AggregateMeanWithSelf", "n×16, slots×16", false,
                   [=](D d) {
                     const double edges = d.graph.nbr_slots.size();
                     return (n(d) + edges) * kHidden * 4 + edges * 4 + n(d) * kHidden * 4.0;
                   },
                   [](DeviceData& d) { AggregateMeanWithSelf(d.graph, d.slots16); },
                   entry(&Kernels::aggregate_mean_with_self16)});
  // The scaling pass (read + write n rows), then reader rows and ids read,
  // slot rows written.
  cases.push_back({"ScatterMeanWithSelfBackward", "n×16 -> slots×16", false,
                   [=](D d) {
                     const double reads = d.graph.readers.size();
                     return 2.0 * n(d) * kHidden * 4 + reads * (kHidden * 4 + 4) +
                            d.graph.num_slots * kHidden * 4.0;
                   },
                   [](DeviceData& d) { ScatterMeanWithSelfBackward(d.graph, d.grad16); },
                   entry(&Kernels::sum_readers16)});
  // Read x, write x and the mask.
  cases.push_back({"ReluInPlace", "n×16", false, [=](D d) { return 3.0 * n(d) * kHidden * 4; },
                   // In place: after the first call x is its own ReLU, with
                   // the same loads, compares and stores as before.
                   [](DeviceData& d) { ReluInPlace(d.relu_x, d.mask16); },
                   no_entry});
  // Read grad and mask, write grad.
  cases.push_back({"ReluBackwardInPlace", "n×16", false,
                   [=](D d) { return 3.0 * n(d) * kHidden * 4; },
                   [](DeviceData& d) { ReluBackwardInPlace(d.grad16, d.mask16); },
                   no_entry});
  return cases;
}

int Run(int argc, char** argv) {
  auto json_path = bench::ConsumeJsonFlag(&argc, argv);
  // Measured on this machine, not simulated, so not bench::PrintHeader.
  std::printf("Epoch kernels per ISA table at train-orkut-4dev shapes (4 threads at once)\n");
  const std::string dispatched = KernelIsaName();
  std::printf("dispatched kernel table: %s\n", dispatched.c_str());
  std::vector<DeviceData> devices = MakeDevices();
  const uint32_t rows = devices[0].graph.num_compute;
  std::printf("device 0: n = %u compute rows, %u slots, %zu edges\n", rows,
              devices[0].graph.num_slots, devices[0].graph.nbr_slots.size());
  const double memcpy_gbps = MemcpyGbps();
  std::printf("memcpy: %.1f GB/s (read + write, %zu MiB per thread)\n\n", memcpy_gbps,
              kMemcpyBytes >> 20);

  // Tables alternate within each kernel, so drift in the host's speed hits
  // them alike.
  const std::vector<KernelCase> cases = Cases();
  const std::vector<Isa> isas = SupportedIsas();
  std::vector<std::vector<double>> ms(isas.size(), std::vector<double>(cases.size()));
  for (size_t c = 0; c < cases.size(); ++c) {
    for (size_t t = 0; t < isas.size(); ++t) {
      PinKernelIsa(isas[t]);
      ms[t][c] = 1e3 * TimeOnAllDevices([&](uint32_t d) { cases[c].run(devices[d]); });
    }
  }
  std::vector<bench::JsonRecord> records;
  for (size_t t = 0; t < isas.size(); ++t) {
    const Kernels& table = KernelTable(isas[t]);
    const double peak = PeakGflops(isas[t]);
    TablePrinter printer({"kernel", "shape", "ms", "rate", "of peak", "vs baseline"});
    for (size_t c = 0; c < cases.size(); ++c) {
      const KernelCase& kc = cases[c];
      double work = 0.0;
      for (const DeviceData& d : devices) {
        work += kc.work(d);
      }
      const double rate = work / ms[t][c] / 1e6;
      const double roof = kc.flops ? peak : memcpy_gbps;
      const bool baseline_body = kc.entry(table) == kc.entry(KernelTable(Isa::kBaseline));
      const std::string vs = isas[t] == Isa::kBaseline ? "-"
                             : baseline_body           ? "baseline body"
                                             : TablePrinter::Fmt(ms[0][c] / ms[t][c]) + "x";
      printer.AddRow({kc.name, kc.shape, TablePrinter::Fmt(ms[t][c], 3),
                      TablePrinter::Fmt(rate) + (kc.flops ? " GFLOP/s" : " GB/s"),
                      TablePrinter::Fmt(100.0 * rate / roof, 0) + "%", vs});

      bench::JsonRecord record;
      record.AddString("isa", table.name);
      record.AddString("dispatched", dispatched);
      record.AddString("kernel", kc.name);
      record.AddString("shape", kc.shape);
      record.AddString("body", baseline_body ? "baseline" : table.name);
      record.AddNumber("ms", ms[t][c]);
      record.AddNumber("baseline_ms", ms[0][c]);
      record.AddNumber("rate", rate);
      record.AddString("rate_unit", kc.flops ? "GFLOP/s" : "GB/s");
      record.AddNumber("peak", roof);
      records.push_back(std::move(record));
    }
    std::printf("%s\n",
                printer
                    .Render(std::string(table.name) + " table (mul+add peak " +
                            TablePrinter::Fmt(peak, 1) + " GFLOP/s, memcpy " +
                            TablePrinter::Fmt(memcpy_gbps, 1) + " GB/s)")
                    .c_str());
  }
  PinKernelIsa(DispatchedIsa());
  if (json_path) {
    if (Status status = bench::WriteJsonRecords(*json_path, records); !status.ok()) {
      std::printf("json write failed: %s\n", status.ToString().c_str());
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace dgcl

int main(int argc, char** argv) { return dgcl::Run(argc, argv); }
