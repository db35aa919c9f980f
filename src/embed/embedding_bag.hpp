// Dense (uncompressed) embedding table with sum pooling — the
// nn.EmbeddingBag baseline every compressed table is compared against.
#pragma once

#include <span>

#include "embed/embedding_table.hpp"
#include "tensor/optimizer.hpp"

namespace elrec {

class EmbeddingBag final : public IEmbeddingTable {
 public:
  /// Rows initialised N(0, init_std); init_std <= 0 leaves the table zero.
  EmbeddingBag(index_t num_rows, index_t dim, Prng& rng,
               float init_std = 0.01f);

  /// Switches the update rule (default plain SGD). Non-SGD rules aggregate
  /// duplicate rows before updating, like torch's sparse optimizers.
  void set_optimizer(OptimizerConfig config);

  index_t num_rows() const override { return weights_.rows(); }
  index_t dim() const override { return weights_.cols(); }

  void forward(const IndexBatch& batch, Matrix& out) override;
  void backward_and_update(const IndexBatch& batch, const Matrix& grad_out,
                           float lr) override;

  /// Frozen row gather over const weights, safe for any number of
  /// concurrent readers. Needs no context (nullptr accepted).
  void materialize_rows(const std::vector<index_t>& rows, Matrix& values,
                        ILookupContext* ctx) const override;

  std::size_t parameter_bytes() const override {
    return static_cast<std::size_t>(weights_.size()) * sizeof(float);
  }
  std::string name() const override { return "EmbeddingBag"; }

  void visit_parameters(const ParameterVisitor& visit) override {
    visit(weights_.data(), static_cast<std::size_t>(weights_.size()));
  }

  Matrix& weights() { return weights_; }
  const Matrix& weights() const { return weights_; }

  /// Single-row read (used by the host-memory store and tests).
  std::span<const float> row_span(index_t row) const {
    return {weights_.row(row), static_cast<std::size_t>(weights_.cols())};
  }

 private:
  Matrix weights_;
  OptimizerState optimizer_;
};

}  // namespace elrec
