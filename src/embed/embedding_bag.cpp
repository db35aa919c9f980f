#include "embed/embedding_bag.hpp"

#include <cstring>

#include "common/parallel.hpp"
#include "tensor/vector_ops.hpp"

namespace elrec {

EmbeddingBag::EmbeddingBag(index_t num_rows, index_t dim, Prng& rng,
                           float init_std) {
  ELREC_CHECK(num_rows > 0 && dim > 0, "embedding table must be non-empty");
  weights_.resize(num_rows, dim);
  if (init_std > 0.0f) weights_.fill_normal(rng, 0.0f, init_std);
  optimizer_.reset(OptimizerConfig{},
                   static_cast<std::size_t>(weights_.size()));
}

void EmbeddingBag::set_optimizer(OptimizerConfig config) {
  optimizer_.reset(config, static_cast<std::size_t>(weights_.size()));
}

void EmbeddingBag::forward(const IndexBatch& batch, Matrix& out) {
  batch.validate(num_rows());
  const index_t b = batch.batch_size();
  const index_t d = dim();
  out.resize(b, d);
  parallel_for(index_t{0}, b, b >= 256, [&](index_t s) {
    float* dst = out.row(s);
    for (index_t p = batch.bag_begin(s); p < batch.bag_end(s); ++p) {
      const float* src = weights_.row(batch.indices[static_cast<std::size_t>(p)]);
#pragma omp simd
      for (index_t j = 0; j < d; ++j) dst[j] += src[j];
    }
  });
}

void EmbeddingBag::materialize_rows(const std::vector<index_t>& rows,
                                    Matrix& values,
                                    ILookupContext* /*ctx*/) const {
  check_rows_in_range(rows, num_rows());
  const index_t d = dim();
  values.resize(static_cast<index_t>(rows.size()), d);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::memcpy(values.row(static_cast<index_t>(i)), weights_.row(rows[i]),
                sizeof(float) * static_cast<std::size_t>(d));
  }
}

void EmbeddingBag::backward_and_update(const IndexBatch& batch,
                                       const Matrix& grad_out, float lr) {
  ELREC_CHECK(grad_out.rows() == batch.batch_size() && grad_out.cols() == dim(),
              "grad_out shape mismatch");
  const index_t d = dim();
  if (optimizer_.config().kind == OptimizerKind::kSgd) {
    // Sum pooling: every index in a bag receives the bag's full gradient.
    // Serial scatter keeps updates deterministic (duplicate rows in a batch).
    for (index_t s = 0; s < batch.batch_size(); ++s) {
      const float* g = grad_out.row(s);
      for (index_t p = batch.bag_begin(s); p < batch.bag_end(s); ++p) {
        float* w = weights_.row(batch.indices[static_cast<std::size_t>(p)]);
#pragma omp simd
        for (index_t j = 0; j < d; ++j) w[j] -= lr * g[j];
      }
    }
    return;
  }
  // Stateful rules: aggregate duplicate rows first (torch sparse-optimizer
  // semantics), then one state update per unique row.
  const UniqueIndexMap umap = build_unique_index_map(batch.indices);
  Matrix agg(static_cast<index_t>(umap.unique.size()), d);
  for (index_t s = 0; s < batch.batch_size(); ++s) {
    const float* g = grad_out.row(s);
    for (index_t p = batch.bag_begin(s); p < batch.bag_end(s); ++p) {
      float* dst = agg.row(umap.occurrence[static_cast<std::size_t>(p)]);
      for (index_t j = 0; j < d; ++j) dst[j] += g[j];
    }
  }
  for (std::size_t u = 0; u < umap.unique.size(); ++u) {
    const index_t row = umap.unique[u];
    optimizer_.update_region(weights_.row(row),
                             agg.row(static_cast<index_t>(u)),
                             static_cast<std::size_t>(row) * d,
                             static_cast<std::size_t>(d), lr);
  }
}

}  // namespace elrec
