// Zero-downtime generation swap behind the IRankingBackend seam.
//
// A ServingGeneration bundles everything one promoted model needs to stay
// alive while requests reference it: the frozen InferenceSession over the
// model restored from a checkpoint and, for the sharded tier, the per-shard
// sessions (sharing that model), ShardServers and the failover ShardRouter
// built over them. HotSwapBackend is the IRankingBackend a RequestScheduler
// fronts: predict() pins the current generation with a shared_ptr copy for
// exactly the duration of one micro-batch, so
//
//  * no request ever observes a torn model — each forward runs start to
//    finish against one frozen generation, bitwise-equal to that
//    generation's standalone session;
//  * swap() is atomic from the readers' side: requests in flight keep the
//    old generation pinned, requests picked up after the swap see the new
//    one, and nothing in between exists;
//  * the displaced generation drains by refcount — once the last in-flight
//    predict() releases its pin, the promoter's handle is unique and the
//    generation can be retired (caches cleared) and destroyed.
//
// Every generation must share the model *shape* (num_tables/num_dense and
// per-table dims); swap() enforces that, since scheduler workers keep
// serving across swaps without revalidating requests.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/thread_annotations.hpp"
#include "serve/inference_session.hpp"
#include "shard/shard_router.hpp"

namespace elrec {

/// One promotable serving generation: one restored model, shared by every
/// session below. The tier runs no threads of its own; members are ordered
/// so destruction tears it down outermost-first — the router before the
/// shard servers it calls, before the sessions the servers borrow — and
/// nothing outlives what it references (the sessions co-own the model).
struct ServingGeneration {
  std::uint64_t id = 0;
  std::string checkpoint_path;

  /// The local frozen session; for a sharded generation this is also the
  /// router's degraded-mode fallback. Always set.
  std::unique_ptr<InferenceSession> session;
  /// Sharded tier (empty for a local-only generation). One session per
  /// shard over the same model as `session` — its own RecShard-warmed
  /// cache partition is all that differs.
  std::vector<std::unique_ptr<InferenceSession>> shard_sessions;
  std::vector<std::unique_ptr<ShardServer>> servers;
  std::unique_ptr<ShardRouter> router;

  /// The backend requests run against: the router when sharded, else the
  /// local session.
  const IRankingBackend& backend() const {
    return router ? static_cast<const IRankingBackend&>(*router) : *session;
  }

  bool sharded() const { return router != nullptr; }

  /// Stale-generation path, run after the drain: every cache of every
  /// session is invalid the moment the generation stops serving.
  void retire();
};

class HotSwapBackend : public IRankingBackend {
 public:
  /// Starts serving `initial` immediately; its shape fixes the request
  /// schema for the backend's lifetime.
  explicit HotSwapBackend(std::shared_ptr<ServingGeneration> initial);

  HotSwapBackend(const HotSwapBackend&) = delete;
  HotSwapBackend& operator=(const HotSwapBackend&) = delete;

  index_t num_tables() const override { return num_tables_; }
  index_t num_dense() const override { return num_dense_; }

  std::unique_ptr<IRankingBackend::State> make_state() const override;

  /// Pins the current generation for the duration of this call and runs its
  /// backend's predict. The worker-local inner state is rebuilt lazily the
  /// first time the worker lands on a new generation.
  void predict(const MiniBatch& batch, std::vector<float>& probs,
               IRankingBackend::State& state) const override;

  /// Installs `next` as the serving generation and returns the displaced
  /// one. The returned pointer stays pinned by any in-flight predicts; wait
  /// for uniqueness before retiring it (ModelPromoter::promote does).
  /// Throws Error (leaving the current generation serving) if `next` does
  /// not match the serving shape.
  std::shared_ptr<ServingGeneration> swap(
      std::shared_ptr<ServingGeneration> next);

  /// The pinned current generation (tests; promoter bookkeeping).
  std::shared_ptr<const ServingGeneration> current() const;

  /// Lock-free id of the serving generation; monotone under promotion.
  std::uint64_t generation_id() const {
    return gen_id_.load(std::memory_order_acquire);
  }

 private:
  struct SwapState : IRankingBackend::State {
    std::uint64_t gen_id = ~0ULL;  // generation `inner` was built by
    std::unique_ptr<IRankingBackend::State> inner;
  };

  index_t num_tables_ = 0;
  index_t num_dense_ = 0;

  // Readers copy the shared_ptr under the shared lock (cheap, no contention
  // with each other); swap() takes the exclusive lock only to exchange the
  // pointer. gen_id_ mirrors gen_->id for lock-free progress checks.
  mutable std::shared_mutex mu_;
  std::shared_ptr<ServingGeneration> gen_ ELREC_GUARDED_BY(mu_);
  std::atomic<std::uint64_t> gen_id_{0};
};

}  // namespace elrec
