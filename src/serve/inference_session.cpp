#include "serve/inference_session.hpp"

#include <cstring>

#include "common/error.hpp"

namespace elrec {

InferenceSession::InferenceSession(std::shared_ptr<const DlrmModel> model,
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
      [this, &state](index_t t, const std::vector<index_t>& rows,
                     Matrix& values, ILookupContext* ctx) {
        resolve_rows(t, rows, values, ctx, state);
      });
}

void InferenceSession::resolve_rows(index_t t, const std::vector<index_t>& rows,
                                    Matrix& values, ILookupContext* ctx,
                                    WorkerState& state) const {
  const IEmbeddingTable& table = model_->table(t);
  ServingCache* cache = caches_[static_cast<std::size_t>(t)].get();
  if (cache == nullptr) {
    table.materialize_rows(rows, values, ctx);
    return;
  }
  const index_t d = table.dim();
  values.resize(static_cast<index_t>(rows.size()), d);
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
    // out of the table's materialize_rows().
    table.materialize_rows(state.miss_rows, state.miss_vals, ctx);
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
  // The cache probe indexes its per-row state by these rows before the
  // table's own materialize_rows() would check them.
  check_rows_in_range(rows, model_->table(t).num_rows());
  resolve_rows(t, rows, values,
               state.ws.table_ctx[static_cast<std::size_t>(t)].get(), state);
}

void InferenceSession::warm_cache(index_t t, const std::vector<index_t>& rows) {
  ServingCache* cache = caches_[static_cast<std::size_t>(t)].get();
  if (cache == nullptr || rows.empty()) return;
  const IEmbeddingTable& table = model_->table(t);
  auto ctx = table.make_lookup_context();
  Matrix values;
  table.materialize_rows(rows, values, ctx.get());
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
