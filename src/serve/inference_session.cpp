#include "serve/inference_session.hpp"

#include <cstring>
#include <string>

#include "common/error.hpp"

namespace elrec {

InferenceSession::InferenceSession(std::unique_ptr<DlrmModel> model,
                                   InferenceSessionConfig config)
    : model_(std::move(model)), config_(config) {
  ELREC_CHECK(model_ != nullptr, "InferenceSession needs a model");
  caches_.resize(static_cast<std::size_t>(model_->num_tables()));
  if (config_.cache.capacity > 0) {
    for (index_t t = 0; t < model_->num_tables(); ++t) {
      const IEmbeddingTable& table = model_->table(t);
      caches_[static_cast<std::size_t>(t)] = std::make_unique<ServingCache>(
          table.num_rows(), table.dim(), config_.cache);
    }
  }
}

std::unique_ptr<InferenceSession::WorkerState>
InferenceSession::make_worker_state() const {
  auto state = std::make_unique<WorkerState>();
  state->ws = model_->make_inference_workspace();
  return state;
}

void InferenceSession::predict(const MiniBatch& batch,
                               std::vector<float>& probs,
                               WorkerState& state) const {
  model_->predict_frozen(
      batch, probs, state.ws,
      [this, &state](index_t t, const IndexBatch& b, Matrix& out,
                     ILookupContext* ctx) {
        cached_table_lookup(t, b, out, ctx, state);
      });
}

void InferenceSession::resolve_rows(index_t t, const std::vector<index_t>& rows,
                                    Matrix& values, ILookupContext* ctx,
                                    WorkerState& state) const {
  const IEmbeddingTable& table = model_->table(t);
  // Always on: the cache probe indexes its per-row state by these rows
  // before the table's own lookup() would validate them.
  const index_t num_rows = table.num_rows();
  for (const index_t r : rows) {
    ELREC_CHECK(r >= 0 && r < num_rows,
                "row " + std::to_string(r) + " out of range for table " +
                    std::to_string(t));
  }
  ServingCache* cache = caches_[static_cast<std::size_t>(t)].get();
  const index_t d = table.dim();
  values.resize(static_cast<index_t>(rows.size()), d);
  if (cache == nullptr) {
    // Bag-of-one batches make lookup() return each row verbatim (sum
    // pooling over a single index is the identity).
    table.lookup(IndexBatch::one_per_sample(rows), values, ctx);
    return;
  }
  cache->probe(rows, values, state.hit);

  state.miss_rows.clear();
  state.miss_pos.clear();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (!state.hit[i]) {
      state.miss_rows.push_back(rows[i]);
      state.miss_pos.push_back(static_cast<index_t>(i));
    }
  }
  if (!state.miss_rows.empty()) {
    // Cached copies stay bitwise equal to freshly computed rows: both come
    // out of the same frozen lookup() path.
    table.lookup(IndexBatch::one_per_sample(state.miss_rows), state.miss_vals,
                 ctx);
    for (std::size_t i = 0; i < state.miss_rows.size(); ++i) {
      std::memcpy(values.row(state.miss_pos[i]),
                  state.miss_vals.row(static_cast<index_t>(i)),
                  sizeof(float) * static_cast<std::size_t>(d));
    }
    cache->admit(state.miss_rows, state.miss_vals);
  }
}

void InferenceSession::materialize_rows(index_t t,
                                        const std::vector<index_t>& rows,
                                        Matrix& values,
                                        WorkerState& state) const {
  ELREC_CHECK(t >= 0 && t < model_->num_tables(),
              "materialize_rows: table out of range");
  resolve_rows(t, rows, values,
               state.ws.table_ctx[static_cast<std::size_t>(t)].get(), state);
}

void InferenceSession::cached_table_lookup(index_t t, const IndexBatch& batch,
                                           Matrix& out, ILookupContext* ctx,
                                           WorkerState& state) const {
  const IEmbeddingTable& table = model_->table(t);
  ServingCache* cache = caches_[static_cast<std::size_t>(t)].get();
  if (cache == nullptr) {
    table.lookup(batch, out, ctx);
    return;
  }
  const index_t d = table.dim();

  // Resolve each unique row once: probe the cache, compute only the misses
  // through the table's frozen path.
  state.unique = build_unique_index_map(batch.indices);
  resolve_rows(t, state.unique.unique, state.unique_vals, ctx, state);

  // Sum-pool the resolved unique rows back into per-bag embeddings, in bag
  // position order — the same order forward()/lookup() pool in, so the
  // float accumulation sequence (and thus the result bits) match.
  out.resize(batch.batch_size(), d);
  for (index_t b = 0; b < batch.batch_size(); ++b) {
    float* dst = out.row(b);
    for (index_t p = batch.bag_begin(b); p < batch.bag_end(b); ++p) {
      const float* src = state.unique_vals.row(
          state.unique.occurrence[static_cast<std::size_t>(p)]);
      for (index_t j = 0; j < d; ++j) dst[j] += src[j];
    }
  }
}

void InferenceSession::warm_cache(index_t t, const std::vector<index_t>& rows) {
  ServingCache* cache = caches_[static_cast<std::size_t>(t)].get();
  if (cache == nullptr || rows.empty()) return;
  const IEmbeddingTable& table = model_->table(t);
  auto ctx = table.make_lookup_context();
  Matrix values;
  table.lookup(IndexBatch::one_per_sample(rows), values, ctx.get());
  cache->warm(rows, values);
}

void InferenceSession::clear_caches() {
  for (auto& cache : caches_) {
    if (cache) cache->clear();
  }
}

double InferenceSession::cache_hit_rate() const {
  std::size_t hits = 0;
  std::size_t probes = 0;
  for (const auto& cache : caches_) {
    if (!cache) continue;
    const ServingCacheStats s = cache->stats_snapshot();
    hits += s.hits;
    probes += s.hits + s.misses;
  }
  return probes == 0 ? 0.0 : static_cast<double>(hits) /
                                 static_cast<double>(probes);
}

}  // namespace elrec
