#include "dlrm/mlp.hpp"

#include "common/parallel.hpp"
#include "tensor/gemm.hpp"
#include "tensor/vector_ops.hpp"

namespace elrec {

Mlp::Mlp(std::vector<index_t> layer_sizes, Prng& rng)
    : layer_sizes_(std::move(layer_sizes)) {
  ELREC_CHECK(layer_sizes_.size() >= 2, "MLP needs at least one layer");
  const auto n = layer_sizes_.size() - 1;
  weights_.resize(n);
  biases_.resize(n);
  preacts_.resize(n);
  for (std::size_t l = 0; l < n; ++l) {
    weights_[l].resize(layer_sizes_[l], layer_sizes_[l + 1]);
    weights_[l].fill_xavier(rng);
    biases_[l].assign(static_cast<std::size_t>(layer_sizes_[l + 1]), 0.0f);
  }
  set_optimizer(OptimizerConfig{});
}

void Mlp::set_optimizer(OptimizerConfig config) {
  const auto n = weights_.size();
  weight_opt_.resize(n);
  bias_opt_.resize(n);
  for (std::size_t l = 0; l < n; ++l) {
    weight_opt_[l].reset(config, static_cast<std::size_t>(weights_[l].size()));
    bias_opt_[l].reset(config, biases_[l].size());
  }
}

namespace {

// z[i, :] += bias, then ReLU on hidden layers: one row-parallel pass shared
// by forward() and forward_frozen(), so the two stay bitwise identical.
// `v < 0 ? 0 : v` is std::max(v, 0.0f) as a vector select (NaN and -0 pass
// through unchanged).
void bias_activation(Matrix& z, const std::vector<float>& bias, bool relu) {
  const index_t cols = z.cols();
  const float* bp = bias.data();
  parallel_for(index_t{0}, z.rows(), z.size() >= (index_t{1} << 15),
               [&](index_t i) {
                 float* row = z.row(i);
                 if (relu) {
#pragma omp simd
                   for (index_t j = 0; j < cols; ++j) {
                     const float v = row[j] + bp[j];
                     row[j] = v < 0.0f ? 0.0f : v;
                   }
                 } else {
#pragma omp simd
                   for (index_t j = 0; j < cols; ++j) row[j] += bp[j];
                 }
               });
}

}  // namespace

void Mlp::forward(const Matrix& in, Matrix& out) {
  ELREC_CHECK(in.cols() == input_dim(), "MLP input dim mismatch");
  cached_batch_ = in.rows();
  const int n = num_layers();

  // Hidden layers read their input from preacts_[l - 1], so only the
  // caller's input needs a copy.
  input_ = in;
  for (int l = 0; l < n; ++l) {
    const Matrix& x =
        l == 0 ? input_ : preacts_[static_cast<std::size_t>(l - 1)];
    Matrix& z = (l == n - 1) ? out : preacts_[static_cast<std::size_t>(l)];
    matmul(x, weights_[static_cast<std::size_t>(l)], z);
    // preacts_ caches the *activated* values; relu_backward's >0 mask is
    // identical on pre- and post-activation, so one buffer suffices.
    bias_activation(z, biases_[static_cast<std::size_t>(l)], l < n - 1);
  }
}

void Mlp::forward_frozen(const Matrix& in, Matrix& out, Matrix& scratch_a,
                         Matrix& scratch_b) const {
  ELREC_CHECK(in.cols() == input_dim(), "MLP input dim mismatch");
  const int n = num_layers();

  const Matrix* cur = &in;
  for (int l = 0; l < n; ++l) {
    Matrix& z = (l == n - 1) ? out : (l % 2 == 0 ? scratch_a : scratch_b);
    matmul(*cur, weights_[static_cast<std::size_t>(l)], z);
    bias_activation(z, biases_[static_cast<std::size_t>(l)], l < n - 1);
    cur = &z;
  }
}

void Mlp::backward_and_update(const Matrix& grad_out, Matrix* grad_in,
                              float lr) {
  const int n = num_layers();
  ELREC_CHECK(grad_out.rows() == cached_batch_ &&
                  grad_out.cols() == output_dim(),
              "grad_out shape mismatch");
  Matrix grad = grad_out;
  Matrix grad_prev;
  for (int l = n - 1; l >= 0; --l) {
    const Matrix& x =
        l == 0 ? input_ : preacts_[static_cast<std::size_t>(l - 1)];
    Matrix& w = weights_[static_cast<std::size_t>(l)];
    auto& bias = biases_[static_cast<std::size_t>(l)];

    // Gradient to the layer input (needed before the weight update); the
    // first layer's only when the caller asks for it.
    if (l > 0) {
      matmul(grad, w, grad_prev, Trans::kNo, Trans::kYes);
    } else if (grad_in != nullptr) {
      matmul(grad, w, *grad_in, Trans::kNo, Trans::kYes);
    }

    if (weight_opt_[static_cast<std::size_t>(l)].config().kind ==
        OptimizerKind::kSgd) {
      // dW = x^T * grad; updated in place (SGD fused into the GEMM).
      gemm(Trans::kYes, Trans::kNo, w.rows(), w.cols(), grad.rows(), -lr,
           x.data(), x.cols(), grad.data(), grad.cols(), 1.0f, w.data(),
           w.cols());
      float* bp = bias.data();
      const index_t cols = grad.cols();
      for (index_t i = 0; i < grad.rows(); ++i) {
        const float* g = grad.row(i);
#pragma omp simd
        for (index_t j = 0; j < cols; ++j) bp[j] -= lr * g[j];
      }
    } else {
      // Stateful rules need the explicit gradient.
      grad_w_scratch_.resize(w.rows(), w.cols());
      gemm(Trans::kYes, Trans::kNo, w.rows(), w.cols(), grad.rows(), 1.0f,
           x.data(), x.cols(), grad.data(), grad.cols(), 0.0f,
           grad_w_scratch_.data(), w.cols());
      weight_opt_[static_cast<std::size_t>(l)].update(
          {w.data(), static_cast<std::size_t>(w.size())},
          {grad_w_scratch_.data(),
           static_cast<std::size_t>(grad_w_scratch_.size())},
          lr);
      grad_b_scratch_.assign(bias.size(), 0.0f);
      float* gb = grad_b_scratch_.data();
      const index_t cols = grad.cols();
      for (index_t i = 0; i < grad.rows(); ++i) {
        const float* g = grad.row(i);
#pragma omp simd
        for (index_t j = 0; j < cols; ++j) gb[j] += g[j];
      }
      bias_opt_[static_cast<std::size_t>(l)].update(
          bias, grad_b_scratch_, lr);
    }

    if (l > 0) {
      // Through the ReLU of layer l-1 (preacts_ holds activated values; the
      // >0 mask is identical).
      Matrix& act = preacts_[static_cast<std::size_t>(l - 1)];
      grad.resize(grad_prev.rows(), grad_prev.cols());
      relu_backward({act.data(), static_cast<std::size_t>(act.size())},
                    {grad_prev.data(), static_cast<std::size_t>(grad_prev.size())},
                    {grad.data(), static_cast<std::size_t>(grad.size())});
    }
  }
}

std::size_t Mlp::parameter_count() const {
  std::size_t total = 0;
  for (std::size_t l = 0; l < weights_.size(); ++l) {
    total += static_cast<std::size_t>(weights_[l].size()) + biases_[l].size();
  }
  return total;
}

}  // namespace elrec
