#include "checks.h"

#include <cstring>

#include "common/rng.h"

namespace perfbench {

using dgcl::CommRelation;
using dgcl::EmbeddingMatrix;
using dgcl::VertexId;

namespace {

bool RowsEqual(const float* a, const float* b, uint32_t dim) {
  return std::memcmp(a, b, static_cast<size_t>(dim) * sizeof(float)) == 0;
}

std::string Where(const char* what, uint32_t device, size_t slot, VertexId v) {
  return std::string(what) + " mismatch on device " + std::to_string(device) + ", slot " +
         std::to_string(slot) + " (vertex " + std::to_string(v) + ")";
}

template <typename T>
bool BytesEqual(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

}  // namespace

std::string CheckForwardSlots(const CommRelation& relation, const EmbeddingMatrix& features,
                              const std::vector<EmbeddingMatrix>& slots) {
  if (slots.size() != relation.num_devices) {
    return "forward returned " + std::to_string(slots.size()) + " matrices for " +
           std::to_string(relation.num_devices) + " devices";
  }
  for (uint32_t d = 0; d < relation.num_devices; ++d) {
    const auto& locals = relation.local_vertices[d];
    const auto& remotes = relation.remote_vertices[d];
    const EmbeddingMatrix& m = slots[d];
    if (m.dim != features.dim || m.rows < locals.size() + remotes.size()) {
      return "forward slot matrix of device " + std::to_string(d) + " has the wrong shape";
    }
    for (size_t i = 0; i < locals.size(); ++i) {
      if (!RowsEqual(m.Row(static_cast<uint32_t>(i)), features.Row(locals[i]), m.dim)) {
        return Where("forward local", d, i, locals[i]);
      }
    }
    for (size_t i = 0; i < remotes.size(); ++i) {
      const size_t slot = locals.size() + i;
      if (!RowsEqual(m.Row(static_cast<uint32_t>(slot)), features.Row(remotes[i]), m.dim)) {
        return Where("forward remote", d, slot, remotes[i]);
      }
    }
  }
  return "";
}

std::vector<EmbeddingMatrix> MakeSlotGrads(const CommRelation& relation, uint32_t dim,
                                           uint64_t seed) {
  dgcl::Rng rng(seed);
  std::vector<EmbeddingMatrix> grads;
  for (uint32_t d = 0; d < relation.num_devices; ++d) {
    const uint32_t rows = static_cast<uint32_t>(relation.local_vertices[d].size() +
                                                relation.remote_vertices[d].size());
    EmbeddingMatrix m = EmbeddingMatrix::Zero(rows, dim);
    for (float& x : m.data) {
      x = static_cast<float>(static_cast<int>(rng.UniformInt(17)) - 8);
    }
    grads.push_back(std::move(m));
  }
  return grads;
}

std::string CheckBackward(const CommRelation& relation,
                          const std::vector<EmbeddingMatrix>& slot_grads,
                          const std::vector<EmbeddingMatrix>& local_grads) {
  if (local_grads.size() != relation.num_devices || slot_grads.size() != relation.num_devices) {
    return "backward returned the wrong number of matrices";
  }
  const uint32_t dim = slot_grads.empty() ? 0 : slot_grads[0].dim;
  // Local index of every vertex at its owner.
  std::vector<uint32_t> local_index(relation.source.size(), 0);
  std::vector<EmbeddingMatrix> reference;
  for (uint32_t d = 0; d < relation.num_devices; ++d) {
    const auto& locals = relation.local_vertices[d];
    EmbeddingMatrix m = EmbeddingMatrix::Zero(static_cast<uint32_t>(locals.size()), dim);
    for (uint32_t i = 0; i < locals.size(); ++i) {
      local_index[locals[i]] = i;
      std::memcpy(m.Row(i), slot_grads[d].Row(i), dim * sizeof(float));
    }
    reference.push_back(std::move(m));
  }
  for (uint32_t d = 0; d < relation.num_devices; ++d) {
    const auto& remotes = relation.remote_vertices[d];
    const uint32_t base = static_cast<uint32_t>(relation.local_vertices[d].size());
    for (uint32_t i = 0; i < remotes.size(); ++i) {
      const VertexId v = remotes[i];
      float* dst = reference[relation.source[v]].Row(local_index[v]);
      const float* src = slot_grads[d].Row(base + i);
      for (uint32_t c = 0; c < dim; ++c) {
        dst[c] += src[c];
      }
    }
  }
  for (uint32_t d = 0; d < relation.num_devices; ++d) {
    const EmbeddingMatrix& got = local_grads[d];
    const EmbeddingMatrix& want = reference[d];
    if (got.rows != want.rows || got.dim != want.dim) {
      return "backward gradient matrix of device " + std::to_string(d) + " has the wrong shape";
    }
    for (uint32_t i = 0; i < want.rows; ++i) {
      if (!RowsEqual(got.Row(i), want.Row(i), dim)) {
        return Where("backward", d, i, relation.local_vertices[d][i]);
      }
    }
  }
  return "";
}

std::string CompareResponses(const dgcl::SampleResponse& expected,
                             const dgcl::SampleResponse& actual) {
  const std::string id = "request " + std::to_string(expected.request_id) + ": ";
  if (expected.request_id != actual.request_id) {
    return id + "answered with request id " + std::to_string(actual.request_id);
  }
  if (expected.status.code() != actual.status.code()) {
    return id + "status " + actual.status.ToString() + ", replay " +
           expected.status.ToString();
  }
  if (!BytesEqual(expected.nodes, actual.nodes)) {
    return id + "sampled nodes differ from the replay";
  }
  if (expected.features.rows != actual.features.rows ||
      expected.features.dim != actual.features.dim ||
      !BytesEqual(expected.features.data, actual.features.data)) {
    return id + "feature rows differ from the replay";
  }
  if (expected.embeddings.rows != actual.embeddings.rows ||
      expected.embeddings.dim != actual.embeddings.dim ||
      !BytesEqual(expected.embeddings.data, actual.embeddings.data)) {
    return id + "embeddings differ from the replay";
  }
  return "";
}

}  // namespace perfbench
