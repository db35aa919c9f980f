#include "dlrm/dlrm_model.hpp"

#include "dlrm/loss.hpp"
#include "obs/trace.hpp"
#include "tensor/vector_ops.hpp"

namespace elrec {

std::vector<index_t> mlp_sizes(index_t in, const std::vector<index_t>& hidden,
                               index_t out) {
  std::vector<index_t> sizes;
  sizes.reserve(hidden.size() + 2);
  sizes.push_back(in);
  sizes.insert(sizes.end(), hidden.begin(), hidden.end());
  sizes.push_back(out);
  return sizes;
}

namespace {

index_t interaction_features(std::size_t num_tables) {
  return static_cast<index_t>(num_tables) + 1;
}

}  // namespace

DlrmModel::DlrmModel(DlrmConfig config,
                     std::vector<std::unique_ptr<IEmbeddingTable>> tables,
                     Prng& rng)
    : config_(std::move(config)),
      tables_(std::move(tables)),
      bottom_mlp_(mlp_sizes(config_.num_dense, config_.bottom_hidden,
                            config_.embedding_dim),
                  rng),
      top_mlp_(mlp_sizes(config_.embedding_dim +
                             interaction_features(tables_.size()) *
                                 (interaction_features(tables_.size()) - 1) / 2,
                         config_.top_hidden, 1),
               rng),
      interaction_(interaction_features(tables_.size()),
                   config_.embedding_dim) {
  ELREC_CHECK(!tables_.empty(), "DLRM needs at least one embedding table");
  for (const auto& t : tables_) {
    ELREC_CHECK(t->dim() == config_.embedding_dim,
                "every table must produce embedding_dim features");
  }
}

void DlrmModel::forward(const MiniBatch& batch, Matrix& logits) {
  ELREC_CHECK(batch.dense.cols() == config_.num_dense,
              "dense feature width mismatch");
  ELREC_CHECK(batch.sparse.size() == tables_.size(),
              "one IndexBatch per table required");

  bottom_mlp_.forward(batch.dense, bottom_out_);

  emb_out_.resize(tables_.size());
  std::vector<const Matrix*> features;
  features.reserve(tables_.size() + 1);
  features.push_back(&bottom_out_);
  for (std::size_t t = 0; t < tables_.size(); ++t) {
    tables_[t]->forward(batch.sparse[t], emb_out_[t]);
    features.push_back(&emb_out_[t]);
  }

  interaction_.forward(features, interact_out_);
  top_mlp_.forward(interact_out_, logits);
  logits_ = logits;
}

void DlrmModel::predict(const MiniBatch& batch, std::vector<float>& probs) {
  Matrix logits;
  forward(batch, logits);
  probs.resize(static_cast<std::size_t>(logits.rows()));
  for (index_t i = 0; i < logits.rows(); ++i) {
    probs[static_cast<std::size_t>(i)] = sigmoid(logits.at(i, 0));
  }
}

DlrmInferenceWorkspace DlrmModel::make_inference_workspace() const {
  DlrmInferenceWorkspace ws;
  ws.emb_out.resize(tables_.size());
  ws.table_ctx.reserve(tables_.size());
  for (const auto& t : tables_) {
    ws.table_ctx.push_back(t->make_lookup_context());
  }
  return ws;
}

void DlrmModel::predict_frozen(const MiniBatch& batch,
                               std::vector<float>& probs,
                               DlrmInferenceWorkspace& ws,
                               const RowResolver& resolve_rows) const {
  ELREC_CHECK(batch.dense.cols() == config_.num_dense,
              "dense feature width mismatch");
  ELREC_CHECK(batch.sparse.size() == tables_.size(),
              "one IndexBatch per table required");
  ELREC_CHECK(ws.table_ctx.size() == tables_.size() &&
                  ws.emb_out.size() == tables_.size(),
              "workspace not from make_inference_workspace()");
  ELREC_CHECK(resolve_rows != nullptr, "predict_frozen needs a row resolver");

  bottom_mlp_.forward_frozen(batch.dense, ws.bottom_out, ws.mlp_scratch_a,
                             ws.mlp_scratch_b);

  std::vector<const Matrix*> features;
  features.reserve(tables_.size() + 1);
  features.push_back(&ws.bottom_out);
  for (std::size_t t = 0; t < tables_.size(); ++t) {
    const IndexBatch& ib = batch.sparse[t];
    // Validated here, before any resolver indexes per-row state (the
    // serving cache) by these rows.
    ib.validate(tables_[t]->num_rows());
    ws.unique = build_unique_index_map(ib.indices);
    resolve_rows(static_cast<index_t>(t), ws.unique.unique, ws.unique_rows,
                 ws.table_ctx[t].get());
    ELREC_CHECK(ws.unique_rows.rows() ==
                        static_cast<index_t>(ws.unique.unique.size()) &&
                    ws.unique_rows.cols() == config_.embedding_dim,
                "row resolver must fill one row per unique index");
    pool_unique_rows(ib, ws.unique.occurrence, ws.unique_rows, ws.emb_out[t]);
    features.push_back(&ws.emb_out[t]);
  }

  interaction_.forward_frozen(features, ws.interact_out, ws.stacked_scratch);
  top_mlp_.forward_frozen(ws.interact_out, ws.logits, ws.mlp_scratch_a,
                          ws.mlp_scratch_b);

  probs.resize(static_cast<std::size_t>(ws.logits.rows()));
  for (index_t i = 0; i < ws.logits.rows(); ++i) {
    probs[static_cast<std::size_t>(i)] = sigmoid(ws.logits.at(i, 0));
  }
}

float DlrmModel::train_step(const MiniBatch& batch, float lr) {
  Matrix logits;
  float loss;
  {
    TRACE_SPAN("dlrm.forward");
    forward(batch, logits);
    loss = bce_with_logits_loss(logits, batch.labels);
  }

  TRACE_SPAN("dlrm.backward");
  Matrix grad_logits;
  bce_with_logits_backward(logits, batch.labels, grad_logits);

  Matrix grad_interact;
  top_mlp_.backward_and_update(grad_logits, &grad_interact, lr);

  std::vector<Matrix> feature_grads;
  interaction_.backward(grad_interact, feature_grads);

  // Raw dense inputs have no parameters, so their gradient is not computed.
  bottom_mlp_.backward_and_update(feature_grads[0], nullptr, lr);

  for (std::size_t t = 0; t < tables_.size(); ++t) {
    tables_[t]->backward_and_update(batch.sparse[t], feature_grads[t + 1], lr);
  }
  return loss;
}

std::size_t DlrmModel::parameter_bytes() const {
  std::size_t total =
      (bottom_mlp_.parameter_count() + top_mlp_.parameter_count()) *
      sizeof(float);
  total += embedding_bytes();
  return total;
}

std::size_t DlrmModel::embedding_bytes() const {
  std::size_t total = 0;
  for (const auto& t : tables_) total += t->parameter_bytes();
  return total;
}

}  // namespace elrec
