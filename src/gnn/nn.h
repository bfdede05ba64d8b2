// Minimal dense NN primitives over EmbeddingMatrix (CPU reference kernels).
//
// This is the "single-GPU GNN system" substrate of the reproduction: DGCL
// proper only moves embeddings around; these kernels do the aggregate-update
// math so end-to-end distributed training can be executed and checked against
// single-device training bit-for-bit (up to float associativity).

#ifndef DGCL_GNN_NN_H_
#define DGCL_GNN_NN_H_

#include <cstdint>

#include "common/rng.h"
#include "runtime/allgather_engine.h"

namespace dgcl {

// out = a * b. Shapes: a [n x k], b [k x m], out [n x m] (resized).
void Gemm(const EmbeddingMatrix& a, const EmbeddingMatrix& b, EmbeddingMatrix& out);
// out = a^T * b. Shapes: a [k x n], b [k x m], out [n x m].
void GemmTransposeA(const EmbeddingMatrix& a, const EmbeddingMatrix& b, EmbeddingMatrix& out);
// out = a * b^T. Shapes: a [n x k], b [m x k], out [n x m].
void GemmTransposeB(const EmbeddingMatrix& a, const EmbeddingMatrix& b, EmbeddingMatrix& out);

void AddInPlace(EmbeddingMatrix& a, const EmbeddingMatrix& b);        // a += b
void ScaleInPlace(EmbeddingMatrix& a, float s);                       // a *= s
void AddRowVectorInPlace(EmbeddingMatrix& a, const std::vector<float>& bias);

// ReLU forward in place; writes the activation mask (1.0/0.0) to `mask`.
void ReluInPlace(EmbeddingMatrix& a, EmbeddingMatrix& mask);
// grad *= mask.
void ReluBackwardInPlace(EmbeddingMatrix& grad, const EmbeddingMatrix& mask);

// Column sums of `a` (bias gradient).
std::vector<float> ColumnSums(const EmbeddingMatrix& a);

// Xavier-style N(0, 2/fan_in) initialization.
EmbeddingMatrix RandomWeights(uint32_t rows, uint32_t cols, Rng& rng);

// Softmax cross-entropy over rows; labels in [0, cols). Returns mean loss
// and writes dLogits (already divided by row count). Rows with label
// kInvalidId are skipped (masked vertices).
double SoftmaxCrossEntropy(const EmbeddingMatrix& logits, const std::vector<uint32_t>& labels,
                           EmbeddingMatrix& grad_logits);

// Argmax-accuracy of `logits` rows against labels (masked rows skipped).
double Accuracy(const EmbeddingMatrix& logits, const std::vector<uint32_t>& labels);

// The instruction set of the kernel bodies in use: "avx512", "avx2" or
// "baseline". Picked once per process, the widest the CPU supports; every
// choice gives bitwise equal results.
const char* KernelIsaName();

}  // namespace dgcl

#endif  // DGCL_GNN_NN_H_
