#include "gnn/nn.h"

#include <algorithm>
#include <cmath>

#include "common/ids.h"
#include "common/logging.h"
#include "gnn/kernel_isa.h"

namespace dgcl {

namespace {

// Gemm's width dispatch: true when `out` was computed by a blocked body.
bool GemmDispatch(const float* a, uint32_t n, uint32_t kdim, const float* b, uint32_t width,
                  float* out) {
  switch (width) {
    case 16:
      ActiveKernels().gemm16(a, n, kdim, b, out);
      return true;
    case 8:
      ActiveKernels().gemm8(a, n, kdim, b, out);
      return true;
    default:
      return false;
  }
}

}  // namespace

// The blocked bodies add a * b for every k, where the plain loop skips a == 0.
// That is exact for finite b: a +0-started sum never becomes -0 (x + -x
// rounds to +0), so adding a product of ±0 leaves it unchanged.
void Gemm(const EmbeddingMatrix& a, const EmbeddingMatrix& b, EmbeddingMatrix& out) {
  DGCL_CHECK_EQ(a.dim, b.rows);
  out = EmbeddingMatrix::Zero(a.rows, b.dim);
  if (GemmDispatch(a.data.data(), a.rows, a.dim, b.data.data(), b.dim, out.data.data())) {
    return;
  }
  for (uint32_t i = 0; i < a.rows; ++i) {
    const float* arow = a.Row(i);
    float* orow = out.Row(i);
    for (uint32_t k = 0; k < a.dim; ++k) {
      const float aik = arow[k];
      if (aik == 0.0f) {
        continue;
      }
      const float* brow = b.Row(k);
      for (uint32_t j = 0; j < b.dim; ++j) {
        orow[j] += aik * brow[j];
      }
    }
  }
}

void GemmTransposeA(const EmbeddingMatrix& a, const EmbeddingMatrix& b, EmbeddingMatrix& out) {
  DGCL_CHECK_EQ(a.rows, b.rows);
  out = EmbeddingMatrix::Zero(a.dim, b.dim);
  switch (b.dim) {
    case 16:
      ActiveKernels().gemm_transpose_a16(a.data.data(), b.data.data(), a.rows, a.dim,
                                         out.data.data());
      return;
    case 8:
      ActiveKernels().gemm_transpose_a8(a.data.data(), b.data.data(), a.rows, a.dim,
                                        out.data.data());
      return;
    default:
      break;
  }
  for (uint32_t r = 0; r < a.rows; ++r) {
    const float* arow = a.Row(r);
    const float* brow = b.Row(r);
    for (uint32_t i = 0; i < a.dim; ++i) {
      const float ari = arow[i];
      if (ari == 0.0f) {
        continue;
      }
      float* orow = out.Row(i);
      for (uint32_t j = 0; j < b.dim; ++j) {
        orow[j] += ari * brow[j];
      }
    }
  }
}

void GemmTransposeB(const EmbeddingMatrix& a, const EmbeddingMatrix& b, EmbeddingMatrix& out) {
  DGCL_CHECK_EQ(a.dim, b.dim);
  out = EmbeddingMatrix::Zero(a.rows, b.rows);
  if (b.rows == 16 || b.rows == 8) {
    // b is small (a weight matrix): transposed once, the product is a Gemm
    // whose vector lanes run over the output columns.
    EmbeddingMatrix bt = EmbeddingMatrix::Zero(b.dim, b.rows);
    for (uint32_t j = 0; j < b.rows; ++j) {
      for (uint32_t k = 0; k < b.dim; ++k) {
        bt.Row(k)[j] = b.Row(j)[k];
      }
    }
    GemmDispatch(a.data.data(), a.rows, a.dim, bt.data.data(), bt.dim, out.data.data());
    return;
  }
  for (uint32_t i = 0; i < a.rows; ++i) {
    const float* arow = a.Row(i);
    float* orow = out.Row(i);
    for (uint32_t j = 0; j < b.rows; ++j) {
      const float* brow = b.Row(j);
      float acc = 0.0f;
      for (uint32_t k = 0; k < a.dim; ++k) {
        acc += arow[k] * brow[k];
      }
      orow[j] = acc;
    }
  }
}

void AddInPlace(EmbeddingMatrix& a, const EmbeddingMatrix& b) {
  DGCL_CHECK_EQ(a.rows, b.rows);
  DGCL_CHECK_EQ(a.dim, b.dim);
  for (size_t i = 0; i < a.data.size(); ++i) {
    a.data[i] += b.data[i];
  }
}

void ScaleInPlace(EmbeddingMatrix& a, float s) {
  for (float& x : a.data) {
    x *= s;
  }
}

void AddRowVectorInPlace(EmbeddingMatrix& a, const std::vector<float>& bias) {
  DGCL_CHECK_EQ(a.dim, bias.size());
  for (uint32_t r = 0; r < a.rows; ++r) {
    float* row = a.Row(r);
    for (uint32_t c = 0; c < a.dim; ++c) {
      row[c] += bias[c];
    }
  }
}

void ReluInPlace(EmbeddingMatrix& a, EmbeddingMatrix& mask) {
  mask.rows = a.rows;
  mask.dim = a.dim;
  mask.data.resize(a.data.size());
  float* x = a.data.data();
  float* m = mask.data.data();
  for (size_t i = 0; i < a.data.size(); ++i) {
    const bool positive = x[i] > 0.0f;
    m[i] = positive ? 1.0f : 0.0f;
    x[i] = positive ? x[i] : 0.0f;
  }
}

void ReluBackwardInPlace(EmbeddingMatrix& grad, const EmbeddingMatrix& mask) {
  DGCL_CHECK_EQ(grad.data.size(), mask.data.size());
  for (size_t i = 0; i < grad.data.size(); ++i) {
    grad.data[i] *= mask.data[i];
  }
}

std::vector<float> ColumnSums(const EmbeddingMatrix& a) {
  std::vector<float> sums(a.dim, 0.0f);
  for (uint32_t r = 0; r < a.rows; ++r) {
    const float* row = a.Row(r);
    for (uint32_t c = 0; c < a.dim; ++c) {
      sums[c] += row[c];
    }
  }
  return sums;
}

EmbeddingMatrix RandomWeights(uint32_t rows, uint32_t cols, Rng& rng) {
  EmbeddingMatrix w = EmbeddingMatrix::Zero(rows, cols);
  const double stddev = std::sqrt(2.0 / rows);
  for (float& x : w.data) {
    x = static_cast<float>(rng.Normal() * stddev);
  }
  return w;
}

double SoftmaxCrossEntropy(const EmbeddingMatrix& logits, const std::vector<uint32_t>& labels,
                           EmbeddingMatrix& grad_logits) {
  DGCL_CHECK_EQ(logits.rows, labels.size());
  grad_logits = EmbeddingMatrix::Zero(logits.rows, logits.dim);
  double loss = 0.0;
  uint32_t counted = 0;
  for (uint32_t r = 0; r < logits.rows; ++r) {
    if (labels[r] == kInvalidId) {
      continue;
    }
    ++counted;
  }
  if (counted == 0) {
    return 0.0;
  }
  std::vector<double> exps(logits.dim);  // one exp per logit, reused by the gradient
  for (uint32_t r = 0; r < logits.rows; ++r) {
    if (labels[r] == kInvalidId) {
      continue;
    }
    const float* row = logits.Row(r);
    float max_logit = row[0];
    for (uint32_t c = 1; c < logits.dim; ++c) {
      max_logit = std::max(max_logit, row[c]);
    }
    double denom = 0.0;
    for (uint32_t c = 0; c < logits.dim; ++c) {
      exps[c] = std::exp(static_cast<double>(row[c]) - max_logit);
      denom += exps[c];
    }
    const uint32_t y = labels[r];
    DGCL_CHECK_LT(y, logits.dim);
    loss += -(static_cast<double>(row[y]) - max_logit - std::log(denom));
    float* grad = grad_logits.Row(r);
    for (uint32_t c = 0; c < logits.dim; ++c) {
      const double p = exps[c] / denom;
      grad[c] = static_cast<float>((p - (c == y ? 1.0 : 0.0)) / counted);
    }
  }
  return loss / counted;
}

const char* KernelIsaName() { return ActiveKernels().name; }

double Accuracy(const EmbeddingMatrix& logits, const std::vector<uint32_t>& labels) {
  DGCL_CHECK_EQ(logits.rows, labels.size());
  uint32_t correct = 0;
  uint32_t counted = 0;
  for (uint32_t r = 0; r < logits.rows; ++r) {
    if (labels[r] == kInvalidId) {
      continue;
    }
    ++counted;
    const float* row = logits.Row(r);
    uint32_t best = 0;
    for (uint32_t c = 1; c < logits.dim; ++c) {
      if (row[c] > row[best]) {
        best = c;
      }
    }
    if (best == labels[r]) {
      ++correct;
    }
  }
  return counted == 0 ? 0.0 : static_cast<double>(correct) / counted;
}

}  // namespace dgcl
