// Multi-layer perceptron with ReLU hidden activations.
//
// Implements both the Bottom MLP (dense features -> embedding dim) and the
// Top MLP (interacted features -> CTR logit) of DLRM (paper Fig. 2). The
// backward pass applies plain SGD inline, matching the fused-optimizer
// convention used across EL-Rec.
#pragma once

#include <vector>

#include "embed/embedding_table.hpp"
#include "tensor/matrix.hpp"
#include "tensor/optimizer.hpp"

namespace elrec {

class Mlp {
 public:
  /// layer_sizes = {in, h1, ..., out}. Hidden layers use ReLU; the output
  /// layer is linear (the caller applies sigmoid/loss).
  Mlp(std::vector<index_t> layer_sizes, Prng& rng);

  /// Switches the update rule (default plain SGD); momentum and Adagrad are
  /// supported for these dense layers.
  void set_optimizer(OptimizerConfig config);

  index_t input_dim() const { return layer_sizes_.front(); }
  index_t output_dim() const { return layer_sizes_.back(); }
  int num_layers() const { return static_cast<int>(weights_.size()); }

  /// Forward for a batch: in is (B x input_dim); out resized to
  /// (B x output_dim). Activations are cached for backward.
  void forward(const Matrix& in, Matrix& out);

  /// Inference-only forward: identical arithmetic (and bitwise-identical
  /// output) to forward(), but nothing is cached — the two ping-pong
  /// activation buffers are caller-owned, so concurrent readers each pass
  /// their own pair and the weights stay strictly read-only.
  void forward_frozen(const Matrix& in, Matrix& out, Matrix& scratch_a,
                      Matrix& scratch_b) const;

  /// Backward for the cached forward: grad_out is (B x output_dim). When
  /// grad_in is non-null it is resized to (B x input_dim) and receives the
  /// input gradient; null skips that GEMM. Parameters are updated with the
  /// layer optimizers at rate lr, identically either way.
  void backward_and_update(const Matrix& grad_out, Matrix* grad_in, float lr);

  std::size_t parameter_count() const;

  /// Visits every weight matrix and bias vector (deterministic order).
  void visit_parameters(const ParameterVisitor& visit) {
    for (std::size_t l = 0; l < weights_.size(); ++l) {
      visit(weights_[l].data(), static_cast<std::size_t>(weights_[l].size()));
      visit(biases_[l].data(), biases_[l].size());
    }
  }

  Matrix& weight(int layer) { return weights_[static_cast<std::size_t>(layer)]; }
  std::vector<float>& bias(int layer) {
    return biases_[static_cast<std::size_t>(layer)];
  }

 private:
  std::vector<index_t> layer_sizes_;
  std::vector<Matrix> weights_;             // layer l: (in_l x out_l)
  std::vector<std::vector<float>> biases_;  // layer l: out_l
  std::vector<OptimizerState> weight_opt_;
  std::vector<OptimizerState> bias_opt_;
  Matrix grad_w_scratch_;
  std::vector<float> grad_b_scratch_;
  // Caches: input_ is a copy of the input to layer 0; preacts_[l] is hidden
  // layer l's activated output, which is also the input to layer l + 1.
  Matrix input_;
  std::vector<Matrix> preacts_;
  index_t cached_batch_ = 0;
};

}  // namespace elrec
