#include "dlrm/mlp.hpp"

#include "tensor/gemm.hpp"
#include "tensor/vector_ops.hpp"

namespace elrec {

Mlp::Mlp(std::vector<index_t> layer_sizes, Prng& rng)
    : layer_sizes_(std::move(layer_sizes)) {
  ELREC_CHECK(layer_sizes_.size() >= 2, "MLP needs at least one layer");
  const auto n = layer_sizes_.size() - 1;
  weights_.resize(n);
  biases_.resize(n);
  inputs_.resize(n);
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

void Mlp::forward(const Matrix& in, Matrix& out) {
  ELREC_CHECK(in.cols() == input_dim(), "MLP input dim mismatch");
  const index_t b = in.rows();
  cached_batch_ = b;
  const int n = num_layers();

  const Matrix* cur = &in;
  for (int l = 0; l < n; ++l) {
    Matrix& x = inputs_[static_cast<std::size_t>(l)];
    x = *cur;  // cache layer input
    Matrix& z = (l == n - 1) ? out : preacts_[static_cast<std::size_t>(l)];
    matmul(x, weights_[static_cast<std::size_t>(l)], z);
    const auto& bias = biases_[static_cast<std::size_t>(l)];
    for (index_t i = 0; i < b; ++i) {
      float* row = z.row(i);
      for (std::size_t j = 0; j < bias.size(); ++j) row[j] += bias[j];
    }
    if (l < n - 1) {
      // preacts_ caches the *activated* values; relu_backward's >0 mask is
      // identical on pre- and post-activation, so one buffer suffices.
      relu_inplace({z.data(), static_cast<std::size_t>(z.size())});
      cur = &z;
    }
  }
}

void Mlp::forward_frozen(const Matrix& in, Matrix& out, Matrix& scratch_a,
                         Matrix& scratch_b) const {
  ELREC_CHECK(in.cols() == input_dim(), "MLP input dim mismatch");
  const index_t b = in.rows();
  const int n = num_layers();

  const Matrix* cur = &in;
  for (int l = 0; l < n; ++l) {
    Matrix& z = (l == n - 1) ? out : (l % 2 == 0 ? scratch_a : scratch_b);
    matmul(*cur, weights_[static_cast<std::size_t>(l)], z);
    const auto& bias = biases_[static_cast<std::size_t>(l)];
    for (index_t i = 0; i < b; ++i) {
      float* row = z.row(i);
      for (std::size_t j = 0; j < bias.size(); ++j) row[j] += bias[j];
    }
    if (l < n - 1) {
      relu_inplace({z.data(), static_cast<std::size_t>(z.size())});
      cur = &z;
    }
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
    Matrix& x = inputs_[static_cast<std::size_t>(l)];
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
      for (index_t i = 0; i < grad.rows(); ++i) {
        const float* g = grad.row(i);
        for (std::size_t j = 0; j < bias.size(); ++j) bias[j] -= lr * g[j];
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
      for (index_t i = 0; i < grad.rows(); ++i) {
        const float* g = grad.row(i);
        for (std::size_t j = 0; j < bias.size(); ++j) {
          grad_b_scratch_[j] += g[j];
        }
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
