// Failover router for the sharded serving tier.
//
// The router is an IRankingBackend: a RequestScheduler drives it exactly
// like a plain InferenceSession, but it is predict_frozen()'s row resolver:
// the deduplicated rows of every table are materialized by the shard
// servers that own them (consistent-hash ring), and predict_frozen() pools
// them as it does for a local session. Each shard call is a plain function
// call on the request worker's thread, with that worker's per-shard
// WorkerState; the tier starts no thread of its own.
//
// Failover ladder, per unique row:
//   1. primary owner        — round 0
//   2. retry-with-backoff   — TransientError from the shard, absorbed by
//                             with_retry on the same shard
//   3. replica owners       — rounds 1..replication-1 walk the ring; a
//                             dead shard, a failed call, or a call shed
//                             after `shard_deadline` without a free slot
//                             moves its rows here
//   4. local Eff-TT fallback— degraded mode: the router's own fallback
//                             session materializes whatever is still
//                             unresolved (cold-tail path, never wrong)
// Because every node holds the full TT-compressed model, all four rungs
// produce bitwise-identical rows; the ladder trades only latency, so a
// routed prediction equals a single-process InferenceSession prediction
// bit for bit in every mode (tests assert this).
//
// Liveness: a shard is live exactly when its server reports alive(), so a
// killed shard is skipped, and a revived one served, from the very next
// request.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/retry.hpp"
#include "serve/inference_session.hpp"
#include "shard/hash_ring.hpp"
#include "shard/shard_server.hpp"

namespace elrec {

struct ShardRouterConfig {
  int replication = 2;          // failover ladder depth (clamped to shards)
  int vnodes_per_shard = 64;    // ring resolution
  std::uint64_t ring_seed = 0x5ec7a11dULL;
  std::chrono::microseconds shard_deadline{20000};  // wait for a shard slot
  RetryPolicy retry;            // transient-fault absorption per call
};

class ShardRouter : public IRankingBackend {
 public:
  /// Per-worker scratch. `local` carries the fallback session's worker
  /// state and `shard[s]` shard s's (workspace + cache scratch); the rest
  /// is ladder staging.
  struct RouterState : IRankingBackend::State {
    std::unique_ptr<InferenceSession::WorkerState> local;
    std::vector<std::unique_ptr<InferenceSession::WorkerState>> shard;
    std::vector<char> resolved;
    std::vector<int> owners;   // one row's ladder
    std::vector<int> ladders;  // rows x ladder depth, row-major
    std::vector<index_t> call_rows;  // one call's rows ...
    std::vector<std::size_t> call_pos;  // ... their positions in the rows
    Matrix call_vals;                   // ... and the call's answer
  };

  /// `fallback` is the router-side full-model session used for degraded
  /// mode (and for the model/workspace); it and every shard must outlive
  /// the router. Shards are addressed by their position in `shards`.
  ShardRouter(const InferenceSession& fallback,
              std::vector<ShardServer*> shards, ShardRouterConfig config = {});

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  index_t num_tables() const override { return fallback_.num_tables(); }
  index_t num_dense() const override { return fallback_.num_dense(); }
  std::unique_ptr<IRankingBackend::State> make_state() const override;
  void predict(const MiniBatch& batch, std::vector<float>& probs,
               IRankingBackend::State& state) const override;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  const HashRing& ring() const { return ring_; }

  /// Whether the router routes to shard `s`: its server's alive().
  bool shard_live(int s) const {
    return shards_[static_cast<std::size_t>(s)]->alive();
  }

  /// Aggregate failover activity since construction.
  struct RouterStats {
    std::uint64_t retries = 0;        // with_retry attempts after a failure
    std::uint64_t failovers = 0;      // row-promotions to a later rung
    std::uint64_t fallback_rows = 0;  // rows served by the local fallback
    std::uint64_t shed = 0;           // calls given up without a free slot
  };
  RouterStats stats() const;

 private:
  /// predict_frozen()'s row resolver: fills values.row(i) with rows[i],
  /// walking the ladder.
  void resolve_rows(index_t t, const std::vector<index_t>& rows, Matrix& values,
                    RouterState& state) const;
  /// Serves state.call_rows on shard `s` into state.call_vals, retrying
  /// transient faults. False when the call was shed or failed.
  bool call_shard(int s, index_t t, RouterState& state) const;
  /// Degraded mode: the fallback session serves every unresolved row.
  void serve_fallback(index_t t, const std::vector<index_t>& rows,
                      Matrix& values, RouterState& state) const;

  const InferenceSession& fallback_;
  std::vector<ShardServer*> shards_;
  ShardRouterConfig config_;
  HashRing ring_;
  int ladder_depth_;

  mutable std::atomic<std::uint64_t> retries_{0};
  mutable std::atomic<std::uint64_t> failovers_{0};
  mutable std::atomic<std::uint64_t> fallback_rows_{0};
  mutable std::atomic<std::uint64_t> shed_{0};
};

}  // namespace elrec
