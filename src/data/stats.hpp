// Dataset statistics reproducing paper Fig. 4, plus the streaming access
// accumulator that feeds serving-cache warming from live traffic.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "common/thread_annotations.hpp"
#include "data/synthetic.hpp"

namespace elrec {

/// Fig. 4a: cumulative access share of the hottest rows. Returns, for each
/// requested top-fraction (e.g. 0.01 = top 1% of rows), the fraction of all
/// accesses they receive, measured over `num_draws` sampled indices of
/// table `t`.
std::vector<double> cumulative_access_share(SyntheticDataset& data, index_t t,
                                            const std::vector<double>& fractions,
                                            index_t num_draws,
                                            index_t batch_size = 4096);

/// Fig. 4b: average number of unique indices per batch for one table.
double avg_unique_indices_per_batch(SyntheticDataset& data, index_t t,
                                    index_t batch_size, index_t num_batches);

/// RecShard-style hot set: the `k` most-accessed indices of table `t`,
/// measured over `num_draws` sampled indices, hottest first (ties broken by
/// ascending index, so the result is deterministic for a seeded dataset).
/// Seeds the serving cache's admission/warm set.
std::vector<index_t> top_accessed_indices(SyntheticDataset& data, index_t t,
                                          index_t k, index_t num_draws,
                                          index_t batch_size = 4096);

/// Streaming per-table access histogram over live traffic. Under popularity
/// drift (data/drift.hpp) a hot set measured once at startup goes stale;
/// the online trainer feeds every consumed batch through observe() and the
/// ModelPromoter warms each new serving generation from top_k() — the
/// RecShard statistics-driven placement loop, closed over a moving
/// distribution. decay() halves every count so recent traffic dominates.
///
/// Thread safety: all methods lock, so the trainer's data-loading thread can
/// observe() while another thread reads top_k(). Rates are per-batch, not per-row,
/// so the lock is cold.
class AccessStats {
 public:
  explicit AccessStats(std::vector<index_t> table_rows);

  index_t num_tables() const {
    return static_cast<index_t>(counts_.size());
  }

  /// Counts every sparse index of the batch (all tables).
  void observe(const MiniBatch& batch);
  /// Counts a raw index list for one table (serving-side traffic).
  void observe_table(index_t t, const std::vector<index_t>& indices);

  /// Halves every count (integer division): exponential recency decay.
  void decay();

  /// The k most-accessed rows of table `t`, hottest first, ties broken by
  /// ascending index — deterministic for a deterministic stream. Rows with
  /// zero observations are never returned.
  std::vector<index_t> top_k(index_t t, index_t k) const;
  /// top_k for every table (the promoter's per-generation warm set).
  std::vector<std::vector<index_t>> top_k_all(index_t k) const;

  /// Total observations recorded for table `t` since construction (not
  /// rescaled by decay()).
  std::uint64_t total(index_t t) const;

 private:
  mutable std::mutex mu_;
  std::vector<std::vector<std::uint64_t>> counts_ ELREC_GUARDED_BY(mu_);
  std::vector<std::uint64_t> totals_ ELREC_GUARDED_BY(mu_);
};

}  // namespace elrec
