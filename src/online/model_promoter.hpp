// Zero-downtime model promotion: checkpoint -> warmed generation -> swap.
//
// promote() closes the train->serve loop: it restores a freshly emitted
// checkpoint into a new ServingGeneration, warms its serving caches from
// the *current* traffic statistics (AccessStats top_k — the RecShard
// placement loop re-run per generation, which is what keeps p99 flat across
// a swap while the hot set drifts), swaps it in behind the HotSwapBackend
// seam, drains the displaced generation by refcount, clears its stale
// caches and destroys it. Both serving shapes promote identically: a local
// InferenceSession, or a full sharded tier (per-shard sessions + servers +
// failover router) built fresh per generation on one restored model.
//
// Failure model: everything expensive happens *before* the swap, on the
// promoter's thread, against generation-private state. The fault site
// `online.promote.commit` sits between "new generation fully built and
// warmed" and "swap" — a promoter killed there (tests arm it through the
// ELREC_FAULT_SITES grammar) simply abandons the built generation; the old
// one never stopped serving and the next promote() starts clean. A drain
// that outlasts drain_timeout parks the displaced generation on a retired
// list (freed with the promoter) instead of blocking serving or destroying
// a model still pinned by a request.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/thread_annotations.hpp"
#include "data/stats.hpp"
#include "online/hot_swap_backend.hpp"
#include "shard/placement.hpp"

namespace elrec {

struct ModelPromoterConfig {
  /// Serving-cache shape applied to every generation's session(s).
  InferenceSessionConfig session;
  /// Hot rows warmed per table from the AccessStats snapshot (0 = no
  /// warming; caches start cold and re-form through admission).
  index_t warm_top_k = 0;

  /// 0 builds local generations; > 0 builds a sharded tier of this many
  /// shards per generation (RecShard-style placement warming).
  int num_shards = 0;
  ShardServerConfig shard_server;
  ShardRouterConfig router;
  PlacementConfig placement;

  std::chrono::milliseconds drain_poll{1};
  /// After this long the displaced generation is parked on the retired list
  /// instead of blocking the promoter (a stuck request must not stall
  /// subsequent promotions).
  std::chrono::milliseconds drain_timeout{10000};
};

struct PromoterStats {
  std::uint64_t promotions = 0;       // successful swaps
  std::uint64_t failed = 0;           // promote() calls that threw
  std::uint64_t drain_timeouts = 0;   // generations parked, not destroyed
  double last_build_us = 0.0;         // restore + warm, off the serving path
  double last_swap_us = 0.0;          // pointer exchange under the lock
  double last_drain_us = 0.0;         // last in-flight pin released
};

class ModelPromoter {
 public:
  /// `make_model` constructs a model with the exact architecture the
  /// checkpoints were written by (fresh parameters; load overwrites them).
  /// `target` must outlive the promoter.
  using ModelFactory = std::function<std::unique_ptr<DlrmModel>()>;

  ModelPromoter(HotSwapBackend& target, ModelFactory make_model,
                ModelPromoterConfig config);
  ~ModelPromoter();

  ModelPromoter(const ModelPromoter&) = delete;
  ModelPromoter& operator=(const ModelPromoter&) = delete;

  /// Builds, warms, swaps, drains, retires. Returns the new generation id.
  /// `stats` supplies the warm sets (nullptr = no warming). Strong
  /// guarantee: on any exception the serving generation is untouched.
  std::uint64_t promote(const std::string& checkpoint_path,
                        const AccessStats* stats);

  PromoterStats stats() const;

  /// Generations that outlived drain_timeout and are still parked.
  std::size_t retired_pending() const;

 private:
  /// Restores `checkpoint_path` once into a complete, warmed generation
  /// that has never served a request; every session of the generation
  /// shares the restored model. Pure build: no serving state is touched.
  std::shared_ptr<ServingGeneration> build_generation(
      const std::string& checkpoint_path, const AccessStats* stats,
      std::uint64_t id) const;

  /// Blocks until `gen` is uniquely owned (all in-flight predicts done) or
  /// drain_timeout passes; returns true when drained.
  bool drain(const std::shared_ptr<ServingGeneration>& gen) const;

  HotSwapBackend& target_;
  ModelFactory make_model_;
  ModelPromoterConfig config_;

  mutable std::mutex mu_;
  std::uint64_t next_id_ ELREC_GUARDED_BY(mu_) = 0;
  PromoterStats stats_ ELREC_GUARDED_BY(mu_);
  std::vector<std::shared_ptr<ServingGeneration>> retired_
      ELREC_GUARDED_BY(mu_);
};

}  // namespace elrec
