// Output checks run on every benchmark run. Each returns an empty string
// when the output is right and a description of the first mismatch
// otherwise; perfbench_selftest feeds them corrupted outputs to show they
// notice.

#ifndef DGCL_PERFBENCH_CHECKS_H_
#define DGCL_PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "comm/relation.h"
#include "runtime/allgather_engine.h"
#include "service/service.h"

namespace perfbench {

// Forward: every device's slot matrix holds, in its local and remote slots,
// exactly the owner's row of `features` (one row per global vertex).
std::string CheckForwardSlots(const dgcl::CommRelation& relation,
                              const dgcl::EmbeddingMatrix& features,
                              const std::vector<dgcl::EmbeddingMatrix>& slots);

// Slot gradients for a backward pass: small integers, so every sum of them
// is exact in float and the reference does not depend on summation order.
std::vector<dgcl::EmbeddingMatrix> MakeSlotGrads(const dgcl::CommRelation& relation,
                                                 uint32_t dim, uint64_t seed);

// Backward: each owner's local gradient equals its own slot's gradient plus
// the gradients every device holding the vertex as a remote slot sent back,
// accumulated here straight from the relation.
std::string CheckBackward(const dgcl::CommRelation& relation,
                          const std::vector<dgcl::EmbeddingMatrix>& slot_grads,
                          const std::vector<dgcl::EmbeddingMatrix>& local_grads);

// Serving: two responses to one request carry byte-identical payloads
// (status, sampled nodes, feature rows, embeddings).
std::string CompareResponses(const dgcl::SampleResponse& expected,
                             const dgcl::SampleResponse& actual);

}  // namespace perfbench

#endif  // DGCL_PERFBENCH_CHECKS_H_
