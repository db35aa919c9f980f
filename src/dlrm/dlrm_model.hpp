// Full DLRM assembly (paper Fig. 2): Bottom MLP + embedding tables +
// pairwise-dot feature interaction + Top MLP + BCE loss.
//
// The embedding tables are injected through the IEmbeddingTable interface,
// which is exactly the drop-in-replacement seam the paper advertises:
// swapping nn.EmbeddingBag for the Eff-TT table changes one constructor
// argument and nothing else.
#pragma once

#include <memory>
#include <vector>

#include "dlrm/interaction.hpp"
#include "dlrm/mlp.hpp"
#include "embed/embedding_table.hpp"
#include "embed/minibatch.hpp"

namespace elrec {

/// Per-reader scratch for DlrmModel::predict_frozen(): activation buffers,
/// the per-table dedup scratch, plus one ILookupContext per embedding table.
/// One instance per concurrent inference thread; obtain via
/// DlrmModel::make_inference_workspace().
struct DlrmInferenceWorkspace {
  Matrix bottom_out;
  std::vector<Matrix> emb_out;
  UniqueIndexMap unique;  // one table's deduplicated indices
  Matrix unique_rows;     // ... and their resolved rows
  Matrix interact_out;
  Matrix logits;
  Matrix mlp_scratch_a, mlp_scratch_b;
  Matrix stacked_scratch;
  std::vector<std::unique_ptr<ILookupContext>> table_ctx;
};

struct DlrmConfig {
  index_t num_dense = 13;                     // continuous input features
  index_t embedding_dim = 16;                 // d — shared feature dimension
  std::vector<index_t> bottom_hidden = {64};  // bottom-MLP hidden sizes
  std::vector<index_t> top_hidden = {64};     // top-MLP hidden sizes
};

class DlrmModel {
 public:
  DlrmModel(DlrmConfig config,
            std::vector<std::unique_ptr<IEmbeddingTable>> tables, Prng& rng);

  index_t num_tables() const { return static_cast<index_t>(tables_.size()); }
  const DlrmConfig& config() const { return config_; }
  IEmbeddingTable& table(index_t t) {
    return *tables_[static_cast<std::size_t>(t)];
  }
  const IEmbeddingTable& table(index_t t) const {
    return *tables_[static_cast<std::size_t>(t)];
  }

  /// Forward pass producing CTR logits (B x 1); state cached for backward.
  void forward(const MiniBatch& batch, Matrix& logits);

  /// Forward + sigmoid, producing click probabilities.
  void predict(const MiniBatch& batch, std::vector<float>& probs);

  /// Allocates the per-reader scratch for predict_frozen() (one lookup
  /// context per table).
  DlrmInferenceWorkspace make_inference_workspace() const;

  /// Resolves the deduplicated rows of table `t` for predict_frozen():
  /// values.row(i) must receive exactly what
  /// table(t).materialize_rows(rows, values, ctx) would write for rows[i].
  /// A plain materialize_rows call, a serving cache or a shard tier plugs
  /// in here; `ctx` is the workspace's context for table t.
  using RowResolver =
      std::function<void(index_t t, const std::vector<index_t>& rows,
                         Matrix& values, ILookupContext* ctx)>;

  /// Inference-only forward + sigmoid: identical probabilities to predict()
  /// (bitwise, for the same parameters) but strictly read-only — all
  /// mutable state lives in `ws`, so any number of threads may serve
  /// requests concurrently from one frozen model. `batch.labels` may be
  /// empty. Each table's indices are deduplicated once, `resolve_rows`
  /// (required) supplies the unique rows, and they are sum-pooled with
  /// pool_unique_rows() — the loop forward() pools with.
  void predict_frozen(const MiniBatch& batch, std::vector<float>& probs,
                      DlrmInferenceWorkspace& ws,
                      const RowResolver& resolve_rows) const;

  /// One SGD training step; returns the batch BCE loss.
  float train_step(const MiniBatch& batch, float lr);

  /// Visits every float parameter buffer (MLPs then tables, fixed order).
  void visit_parameters(const ParameterVisitor& visit) {
    bottom_mlp_.visit_parameters(visit);
    top_mlp_.visit_parameters(visit);
    for (auto& t : tables_) t->visit_parameters(visit);
  }

  /// Total trainable parameter bytes (MLPs + tables).
  std::size_t parameter_bytes() const;
  /// Bytes held by the embedding tables alone (the Table III metric).
  std::size_t embedding_bytes() const;

 private:
  DlrmConfig config_;
  std::vector<std::unique_ptr<IEmbeddingTable>> tables_;
  Mlp bottom_mlp_;
  Mlp top_mlp_;
  FeatureInteraction interaction_;

  // Forward caches.
  Matrix bottom_out_;
  std::vector<Matrix> emb_out_;
  Matrix interact_out_;
  Matrix logits_;
};

/// Convenience: builds the {in, hidden..., out} size vector for Mlp.
std::vector<index_t> mlp_sizes(index_t in, const std::vector<index_t>& hidden,
                               index_t out);

}  // namespace elrec
