// One shard of the fault-tolerant serving tier.
//
// A ShardServer wraps an InferenceSession and serves row-materialization
// calls on the caller's thread: the router calls serve() directly, holding
// one of the shard's `num_workers` slots for the duration of the call.
// Because the Eff-TT model is tiny, every shard holds the *full* frozen
// model; what a shard actually owns is cache warmth for its consistent-hash
// partition (see placement.hpp) — so any shard can serve any row
// bitwise-identically, just colder. That is the property that makes
// failover and degraded mode "slower, never wrong".
//
// Failure model: the fault sites `shard.crash` (fatal — the server marks
// itself dead mid-request, emulating process death) and `shard.serve`
// (transient/delay faults on individual calls) are planted on the serve
// path. kill()/revive() drive the same transitions administratively for
// tests and the demo. A dead server refuses calls until revive(); calls
// already past the liveness check finish normally.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <semaphore>
#include <vector>

#include "serve/inference_session.hpp"

namespace elrec {

struct ShardServerConfig {
  std::size_t num_workers = 2;  // concurrent calls the shard serves
};

class ShardServer {
 public:
  /// `session` must outlive the server.
  ShardServer(int shard_id, const InferenceSession& session,
              ShardServerConfig config = {});

  ShardServer(const ShardServer&) = delete;
  ShardServer& operator=(const ShardServer&) = delete;

  int shard_id() const { return shard_id_; }
  const InferenceSession& session() const { return session_; }

  /// False after kill() or a shard.crash fault until revive().
  bool alive() const { return alive_.load(std::memory_order_acquire); }

  /// Administrative death: later calls are refused. Idempotent.
  void kill() { alive_.store(false, std::memory_order_release); }

  /// Brings a dead server back; the next call is served. No-op if alive.
  void revive() { alive_.store(true, std::memory_order_release); }

  /// Materializes `rows` of `table` into `values` on the calling thread
  /// with the caller's `state` (made by session().make_worker_state()).
  /// Returns false without serving when no slot frees up within `wait` —
  /// the caller sheds the call. Throws TransientError on a transient
  /// fault, and Error when the server is dead or dies during the call.
  bool serve(index_t table, const std::vector<index_t>& rows, Matrix& values,
             InferenceSession::WorkerState& state,
             std::chrono::microseconds wait);

  std::uint64_t calls_served() const {
    return calls_.load(std::memory_order_relaxed);
  }
  std::uint64_t rows_served() const {
    return rows_.load(std::memory_order_relaxed);
  }

 private:
  const int shard_id_;
  const InferenceSession& session_;
  std::counting_semaphore<> slots_;
  std::atomic<bool> alive_{true};
  std::atomic<std::uint64_t> calls_{0};
  std::atomic<std::uint64_t> rows_{0};
};

}  // namespace elrec
