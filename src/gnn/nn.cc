#include "gnn/nn.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/ids.h"
#include "common/logging.h"

namespace dgcl {

namespace {

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

// Gemm's width dispatch: true when `out` was computed by a blocked body.
bool GemmDispatch(const float* a, uint32_t n, uint32_t kdim, const float* b, uint32_t width,
                  float* out) {
  switch (width) {
    case 16:
      GemmBlocked<16, 2>(a, n, kdim, b, out);
      return true;
    case 8:
      GemmBlocked<8, 4>(a, n, kdim, b, out);
      return true;
    default:
      return false;
  }
}

// Output rows [i, i + R) of out += a^T b over rows [r0, r1) of a and b, r
// ascending; the tile is read from and written back to `out`, so blocks of
// rows carry it in ascending order.
template <uint32_t W, uint32_t R>
void GemmTransposeATile(const EmbeddingMatrix& a, const EmbeddingMatrix& b, uint32_t i,
                        uint32_t r0, uint32_t r1, float* out) {
  float acc[R][W];
  for (uint32_t t = 0; t < R; ++t) {
    for (uint32_t j = 0; j < W; ++j) {
      acc[t][j] = out[static_cast<size_t>(i + t) * W + j];
    }
  }
  for (uint32_t r = r0; r < r1; ++r) {
    const float* arow = a.Row(r) + i;
    const float* brow = b.Row(r);
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

// out [a.dim x W] (zeroed) += a^T b, in blocks of kRowBlock rows of a and b
// that stay in cache while every output tile passes over them.
template <uint32_t W, uint32_t R>
void GemmTransposeABlocked(const EmbeddingMatrix& a, const EmbeddingMatrix& b, float* out) {
  constexpr uint32_t kRowBlock = 64;
  for (uint32_t r0 = 0; r0 < a.rows; r0 += kRowBlock) {
    const uint32_t r1 = std::min(a.rows, r0 + kRowBlock);
    uint32_t i = 0;
    for (; i + R <= a.dim; i += R) {
      GemmTransposeATile<W, R>(a, b, i, r0, r1, out);
    }
    for (; i < a.dim; ++i) {
      GemmTransposeATile<W, 1>(a, b, i, r0, r1, out);
    }
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
      GemmTransposeABlocked<16, 2>(a, b, out.data.data());
      return;
    case 8:
      GemmTransposeABlocked<8, 4>(a, b, out.data.data());
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
