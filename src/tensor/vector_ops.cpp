#include "tensor/vector_ops.hpp"

#include <algorithm>
#include <cmath>

namespace elrec {

void axpy(float alpha, std::span<const float> x, std::span<float> y) {
  ELREC_DCHECK(x.size() == y.size());
#pragma omp simd
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

void copy(std::span<const float> x, std::span<float> y) {
  ELREC_DCHECK(x.size() == y.size());
  std::copy(x.begin(), x.end(), y.begin());
}

void scale(float alpha, std::span<float> x) {
  for (auto& v : x) v *= alpha;
}

float dot(std::span<const float> x, std::span<const float> y) {
  ELREC_DCHECK(x.size() == y.size());
  float acc = 0.0f;
#pragma omp simd reduction(+ : acc)
  for (std::size_t i = 0; i < x.size(); ++i) acc += x[i] * y[i];
  return acc;
}

float sum(std::span<const float> x) {
  float acc = 0.0f;
  for (float v : x) acc += v;
  return acc;
}

void relu_inplace(std::span<float> x) {
  for (auto& v : x) v = std::max(v, 0.0f);
}

void relu_backward(std::span<const float> x, std::span<const float> dy,
                   std::span<float> dx) {
  ELREC_DCHECK(x.size() == dy.size() && dy.size() == dx.size());
  // A vector select, not a branch: activation signs are random, so a branch
  // mispredicts about half the time. `x > 0` is false for NaN and -0 as
  // before. Elementwise, so dx may alias x or dy.
  const float* xp = x.data();
  const float* dyp = dy.data();
  float* dxp = dx.data();
  const std::size_t n = x.size();
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) dxp[i] = xp[i] > 0.0f ? dyp[i] : 0.0f;
}

float sigmoid(float x) {
  if (x >= 0.0f) {
    const float z = std::exp(-x);
    return 1.0f / (1.0f + z);
  }
  const float z = std::exp(x);
  return z / (1.0f + z);
}

}  // namespace elrec
