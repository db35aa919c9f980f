// Elementwise / reduction primitives shared by the embedding and MLP kernels.
#pragma once

#include <span>

#include "tensor/matrix.hpp"

namespace elrec {

/// y += alpha * x
void axpy(float alpha, std::span<const float> x, std::span<float> y);

/// y = x
void copy(std::span<const float> x, std::span<float> y);

/// x *= alpha
void scale(float alpha, std::span<float> x);

/// dot(x, y)
float dot(std::span<const float> x, std::span<const float> y);

/// sum of entries
float sum(std::span<const float> x);

/// dx = dy where x > 0 else 0 (ReLU backward, given pre-activation x).
void relu_backward(std::span<const float> x, std::span<const float> dy,
                   std::span<float> dx);

/// Numerically stable logistic sigmoid.
float sigmoid(float x);

}  // namespace elrec
