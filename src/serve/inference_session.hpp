// Frozen-model inference session.
//
// Shares a trained DlrmModel (typically restored via load_dlrm_model +
// load_tt_cores) and exposes only its const serving path: predict() runs
// DlrmModel::predict_frozen() with every piece of mutable state confined to
// the caller's WorkerState, so N threads serve concurrently from one model
// with zero synchronization on the parameters. Sessions of one serving
// generation (a fallback plus one per shard) share a single model.
//
// Each embedding table optionally gets a ServingCache of fully materialized
// rows. The cache is this session's row resolver for predict_frozen(): the
// deduplicated rows are probed first, misses are materialized by the
// table's frozen materialize_rows() and offered for admission, and
// predict_frozen() pools the merged rows. Cached values are verbatim copies
// of what materialize_rows() produced, so cached and uncached requests are
// bitwise identical.
#pragma once

#include <memory>
#include <vector>

#include "dlrm/dlrm_model.hpp"
#include "serve/ranking_backend.hpp"
#include "serve/serving_cache.hpp"

namespace elrec {

struct InferenceSessionConfig {
  /// Applied to every embedding table; capacity 0 serves straight from the
  /// tables with no caching.
  ServingCacheConfig cache;
};

class InferenceSession : public IRankingBackend {
 public:
  /// Per-worker mutable state: the model workspace plus the cache-path
  /// scratch. One per concurrent caller of predict(); never share.
  struct WorkerState : IRankingBackend::State {
    DlrmInferenceWorkspace ws;
    // Cache-path scratch (per table call, reused across tables/requests).
    std::vector<char> hit;           // probe hit mask over the rows
    std::vector<index_t> miss_rows;
    std::vector<index_t> miss_pos;   // position of each miss in the rows
    Matrix miss_vals;                // table-materialized rows for the misses
  };

  /// Takes a std::unique_ptr<DlrmModel> as well (it converts); sessions
  /// built on one shared model serve identical bits.
  explicit InferenceSession(std::shared_ptr<const DlrmModel> model,
                            InferenceSessionConfig config = {});

  const DlrmModel& model() const { return *model_; }
  index_t num_tables() const override { return model_->num_tables(); }
  index_t num_dense() const override { return model_->config().num_dense; }

  std::unique_ptr<WorkerState> make_worker_state() const;

  /// IRankingBackend: make_worker_state() behind the scheduler-facing seam.
  std::unique_ptr<IRankingBackend::State> make_state() const override {
    return make_worker_state();
  }

  /// Frozen forward + sigmoid for a batch of requests. Thread-safe across
  /// callers as long as each passes its own WorkerState. labels may be
  /// empty.
  void predict(const MiniBatch& batch, std::vector<float>& probs,
               WorkerState& state) const;

  /// IRankingBackend entry: `state` must come from this session's
  /// make_state().
  void predict(const MiniBatch& batch, std::vector<float>& probs,
               IRankingBackend::State& state) const override {
    predict(batch, probs, static_cast<WorkerState&>(state));
  }

  /// Materializes individual rows of table `t` through the same cache-aware
  /// row path predict() resolves with: cache probe first, misses computed
  /// by the table's materialize_rows() and offered for admission.
  /// values.row(i) receives rows[i]; bitwise equal to an uncached
  /// materialization of the same rows. This is the shard server's
  /// row-serving entry point.
  void materialize_rows(index_t t, const std::vector<index_t>& rows,
                        Matrix& values, WorkerState& state) const;

  /// Seeds table `t`'s cache with the given hot rows (e.g. from
  /// data/stats top_accessed_indices), materializing them through the
  /// table's frozen materialize_rows(). Call before serving starts; not
  /// concurrent with predict().
  void warm_cache(index_t t, const std::vector<index_t>& rows);

  /// Invalidates every table's cache (stale-generation path after swapping
  /// in new parameters).
  void clear_caches();

  /// nullptr when caching is disabled.
  const ServingCache* cache(index_t t) const {
    return caches_[static_cast<std::size_t>(t)].get();
  }

  /// Aggregate hit fraction across all tables (0 when nothing probed).
  double cache_hit_rate() const;

 private:
  // Fills values.row(i) with rows[i] (already range-checked) via cache
  // probe + materialize_rows of the misses (+ admission). predict()'s row
  // resolver and materialize_rows' body.
  void resolve_rows(index_t t, const std::vector<index_t>& rows, Matrix& values,
                    ILookupContext* ctx, WorkerState& state) const;

  std::shared_ptr<const DlrmModel> model_;
  InferenceSessionConfig config_;
  // ServingCache is internally synchronized, so admission from const
  // predict() is safe; the unique_ptr array itself is never mutated after
  // construction.
  std::vector<std::unique_ptr<ServingCache>> caches_;
};

}  // namespace elrec
